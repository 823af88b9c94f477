// Wire kinds: the first byte of every network payload addressed to a
// node host, and the inner type of a node-to-node channel message. The
// node, its simulated and live clients, and a joining node all speak
// these, so they are defined once.

#ifndef CCF_NODE_WIRE_H_
#define CCF_NODE_WIRE_H_

#include "common/bytes.h"

namespace ccf::node {

enum WireKind : uint8_t {
  kSessionRecord = 1,  // STLS record of a user, member or joiner session
  kNodeChannel = 2,    // sealed node-to-node channel message
};

// Inner types on node-to-node channels.
enum ChannelType : uint8_t {
  kConsensus = 1,
  kForwardRequest = 2,
  kForwardResponse = 3,
  kSnapshotCatchUp = 4,
};

inline Bytes WrapWire(WireKind kind, ByteSpan payload) {
  Bytes out;
  out.push_back(static_cast<uint8_t>(kind));
  Append(&out, payload);
  return out;
}

}  // namespace ccf::node

#endif  // CCF_NODE_WIRE_H_

#include "net/routing_api.hpp"

#include <cctype>

#include "core/assert.hpp"
#include "net/node.hpp"

namespace manet {

void RoutingProtocol::on_link_failure(const Packet& pkt, NodeId /*next_hop*/) {
  // Default: protocols that don't react to link-layer feedback (pure
  // proactive designs) simply lose the packet.
  node_.drop(pkt, DropReason::kMacRetryLimit);
}

namespace routing {

namespace {
bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}
}  // namespace

void Registry::add(const ProtocolEntry& entry) {
  MANET_EXPECTS(entry.name != nullptr && entry.make != nullptr);
  MANET_EXPECTS_MSG(by_name(entry.name) == nullptr, "duplicate protocol name %s", entry.name);
  MANET_EXPECTS_MSG(by_id(entry.id) == nullptr, "duplicate protocol id %u for %s",
                    static_cast<unsigned>(entry.id), entry.name);
  entries_.push_back(entry);
}

const ProtocolEntry* Registry::by_name(std::string_view name) const {
  for (const ProtocolEntry& e : entries_) {
    if (iequals(e.name, name)) return &e;
  }
  return nullptr;
}

const ProtocolEntry* Registry::by_id(std::uint8_t id) const {
  for (const ProtocolEntry& e : entries_) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

std::string Registry::names() const {
  std::string out;
  for (const ProtocolEntry& e : entries_) {
    if (!out.empty()) out += ", ";
    out += e.name;
  }
  return out;
}

}  // namespace routing

}  // namespace manet

#include "proto/command.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace dcg::proto {

int64_t SecondaryStalenessSeconds(const ServerStatusReply& reply, size_t i) {
  const repl::OpTime& sec = reply.secondary_last_applied[i];
  if (sec.seq >= reply.primary_last_applied.seq) return 0;
  return (reply.primary_last_applied.wall - sec.wall) / sim::kSecond;
}

int64_t MaxStalenessSeconds(const ServerStatusReply& reply) {
  int64_t max_seconds = 0;
  for (size_t i = 0; i < reply.secondary_last_applied.size(); ++i) {
    max_seconds = std::max(max_seconds, SecondaryStalenessSeconds(reply, i));
  }
  return max_seconds;
}

std::string_view ToString(CommandKind kind) {
  switch (kind) {
    case CommandKind::kFind:
      return "find";
    case CommandKind::kWrite:
      return "write";
    case CommandKind::kPing:
      return "ping";
    case CommandKind::kServerStatus:
      return "serverStatus";
    case CommandKind::kHello:
      return "hello";
  }
  return "unknown";
}

namespace {
/// The handler registered for `host`, or nullptr.
template <typename H>
H* HandlerAt(std::vector<H>& handlers, net::HostId host) {
  if (host < 0 || static_cast<size_t>(host) >= handlers.size()) return nullptr;
  H& handler = handlers[static_cast<size_t>(host)];
  return handler ? &handler : nullptr;
}

template <typename H>
void Register(std::vector<H>* handlers, net::HostId host, H handler) {
  DCG_CHECK(host >= 0);
  if (static_cast<size_t>(host) >= handlers->size()) {
    handlers->resize(static_cast<size_t>(host) + 1);
  }
  (*handlers)[static_cast<size_t>(host)] = std::move(handler);
}
}  // namespace

void CommandBus::RegisterService(net::HostId host, Handler handler) {
  DCG_CHECK_MSG(HandlerAt(handlers_, host) == nullptr,
                "host already has a command service");
  server_hosts_.push_back(host);
  Register(&handlers_, host, std::move(handler));
}

void CommandBus::RegisterEnvelopeService(net::HostId host,
                                         EnvelopeHandler handler) {
  DCG_CHECK_MSG(HandlerAt(envelope_handlers_, host) == nullptr,
                "host already has an envelope service");
  Register(&envelope_handlers_, host, std::move(handler));
}

void CommandBus::Send(net::HostId from, net::HostId to, CommandPtr command) {
  DCG_CHECK_MSG(HandlerAt(handlers_, to) != nullptr,
                "no command service at destination");
  // The handler is found again at delivery by index: a registration while
  // the message is in flight may grow the vector.
  network_->Send(from, to, [this, to, command = std::move(command)]() mutable {
    handlers_[static_cast<size_t>(to)](std::move(command));
  });
}

void CommandBus::SendEnvelope(net::HostId from, net::HostId to,
                              Envelope envelope) {
  DCG_CHECK_MSG(HandlerAt(envelope_handlers_, to) != nullptr,
                "no envelope service at destination");
  network_->Send(from, to,
                 [this, to, envelope = std::move(envelope)]() mutable {
                   envelope_handlers_[static_cast<size_t>(to)](
                       std::move(envelope));
                 });
}

}  // namespace dcg::proto

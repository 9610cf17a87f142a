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

void CommandBus::RegisterService(net::HostId host, Handler handler) {
  DCG_CHECK_MSG(handlers_.find(host) == handlers_.end(),
                "host already has a command service");
  server_hosts_.push_back(host);
  handlers_[host] = std::move(handler);
}

void CommandBus::RegisterEnvelopeService(net::HostId host,
                                         EnvelopeHandler handler) {
  DCG_CHECK_MSG(envelope_handlers_.find(host) == envelope_handlers_.end(),
                "host already has an envelope service");
  envelope_handlers_[host] = std::move(handler);
}

void CommandBus::Send(net::HostId from, net::HostId to, Command command) {
  auto it = handlers_.find(to);
  DCG_CHECK_MSG(it != handlers_.end(), "no command service at destination");
  Handler* handler = &it->second;
  network_->Send(from, to, [handler, command = std::move(command)]() mutable {
    (*handler)(std::move(command));
  });
}

void CommandBus::SendEnvelope(net::HostId from, net::HostId to,
                              Envelope envelope) {
  auto it = envelope_handlers_.find(to);
  DCG_CHECK_MSG(it != envelope_handlers_.end(),
                "no envelope service at destination");
  EnvelopeHandler* handler = &it->second;
  network_->Send(from, to,
                 [handler, envelope = std::move(envelope)]() mutable {
                   (*handler)(std::move(envelope));
                 });
}

}  // namespace dcg::proto

#include "service/service.hpp"

#include <iterator>
#include <utility>

#include "common/error.hpp"

namespace cdsflow::service {

PricingService::PricingService(ServiceConfig config,
                               const cds::TermStructure& interest,
                               const cds::TermStructure& hazard)
    : config_(std::move(config)),
      epoch_(std::chrono::steady_clock::now()) {
  CDSFLOW_EXPECT(!config_.tenants.empty(), "service needs at least one tenant");
  for (const auto& spec : config_.tenants) {
    CDSFLOW_EXPECT(sessions_.count(spec.id) == 0,
                   "duplicate tenant id " + std::to_string(spec.id));
    sessions_.emplace(spec.id,
                      std::make_unique<TenantSession>(spec, interest, hazard));
  }
}

double PricingService::now_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

TenantSession* PricingService::session(std::uint32_t tenant) {
  const auto it = sessions_.find(tenant);
  return it == sessions_.end() ? nullptr : it->second.get();
}

const TenantSession* PricingService::session(std::uint32_t tenant) const {
  const auto it = sessions_.find(tenant);
  return it == sessions_.end() ? nullptr : it->second.get();
}

void PricingService::send_reject(net::Server& server, int conn,
                                 std::uint32_t tenant, std::uint32_t request,
                                 net::RejectReason reason,
                                 std::string detail) {
  switch (reason) {
    case net::RejectReason::kMalformed:
      ++stats_.rejects_malformed;
      break;
    case net::RejectReason::kUnknownTenant:
      ++stats_.rejects_unknown_tenant;
      break;
    case net::RejectReason::kWrongMode:
      ++stats_.rejects_wrong_mode;
      break;
    case net::RejectReason::kOverload:
      break;  // counted as shed where the decision is made
  }
  server.send(conn, net::encode_reject(tenant, request, reason,
                                       net::clip_reject_detail(
                                           std::move(detail))));
}

void PricingService::on_frame(net::Server& server, int conn,
                              net::Frame frame) {
  ++stats_.frames;
  switch (frame.type) {
    case net::FrameType::kQuoteUpdate: {
      TenantSession* tenant = session(frame.tenant);
      if (tenant == nullptr) {
        send_reject(server, conn, frame.tenant, frame.request,
                    net::RejectReason::kUnknownTenant,
                    "tenant " + std::to_string(frame.tenant));
        return;
      }
      std::string error;
      if (!tenant->push_quote(frame.knot, frame.rate, &error)) {
        send_reject(server, conn, frame.tenant, frame.request,
                    net::RejectReason::kMalformed, error);
        return;
      }
      ++stats_.quote_updates;  // fire-and-forget: no ack
      return;
    }
    case net::FrameType::kPriceRequest:
    case net::FrameType::kRiskRequest: {
      ++stats_.requests;
      TenantSession* tenant = session(frame.tenant);
      if (tenant == nullptr) {
        send_reject(server, conn, frame.tenant, frame.request,
                    net::RejectReason::kUnknownTenant,
                    "tenant " + std::to_string(frame.tenant));
        return;
      }
      const bool wants_risk = frame.type == net::FrameType::kRiskRequest;
      if (wants_risk != tenant->risk()) {
        send_reject(server, conn, frame.tenant, frame.request,
                    net::RejectReason::kWrongMode,
                    tenant->risk() ? "tenant serves risk requests"
                                   : "tenant serves price requests");
        return;
      }
      if (auto error = net::option_reject_detail(frame.options)) {
        send_reject(server, conn, frame.tenant, frame.request,
                    net::RejectReason::kMalformed, std::move(*error));
        return;
      }
      const AdmissionDecision decision = tenant->submit(
          conn, frame.request, frame.options, now_seconds());
      switch (decision) {
        case AdmissionDecision::kAdmit:
          ++stats_.admitted;
          break;
        case AdmissionDecision::kDefer:
          ++stats_.deferred;
          break;
        case AdmissionDecision::kShed:
          ++stats_.shed;
          send_reject(server, conn, frame.tenant, frame.request,
                      net::RejectReason::kOverload,
                      "projected completion misses the defer ceiling");
          break;
      }
      return;
    }
    case net::FrameType::kResult:
    case net::FrameType::kReject: {
      // Server-to-client frames arriving from a client are a protocol
      // violation, handled like a poisoned stream: reject, then drop the
      // connection.
      send_reject(server, conn, frame.tenant, frame.request,
                  net::RejectReason::kMalformed,
                  std::string("client sent a server frame (") +
                      net::to_string(frame.type) + ")");
      server.close_connection(conn);
      return;
    }
    case net::FrameType::kNodeProbe:
    case net::FrameType::kShardPrice:
    case net::FrameType::kShardResult: {
      // Cluster-plane frames belong to a cluster worker
      // (src/cluster/worker.hpp), not the tenant-facing service.
      send_reject(server, conn, frame.tenant, frame.request,
                  net::RejectReason::kMalformed,
                  std::string("cluster frame at the pricing service (") +
                      net::to_string(frame.type) + ")");
      server.close_connection(conn);
      return;
    }
  }
}

void PricingService::on_malformed(net::Server& server, int conn,
                                  const std::string& error) {
  ++stats_.connections_poisoned;
  ++stats_.rejects_malformed;
  // The reader is poisoned; this reject is the last frame out before the
  // server tears the connection down.
  server.send(conn,
              net::encode_reject(0, 0, net::RejectReason::kMalformed,
                                 net::clip_reject_detail(error)));
}

void PricingService::send_completed(
    net::Server& server, const std::vector<TenantSession::Completed>& batch,
    std::uint32_t tenant) {
  for (const auto& completed : batch) {
    ++stats_.responses;
    server.send(completed.conn,
                net::encode_result(tenant, completed.request, completed.status,
                                   completed.results, completed.greeks));
  }
}

void PricingService::on_tick(net::Server& server) {
  const double now = now_seconds();
  std::size_t pending = 0;
  for (auto& [id, tenant] : sessions_) {
    send_completed(server, tenant->poll(now), id);
    pending += tenant->pending_requests();
  }
  if (server.connections() > 0) saw_connection_ = true;
  if (config_.stop_when_idle && saw_connection_ &&
      server.connections() == 0 && pending == 0) {
    server.stop();
  }
}

void PricingService::on_disconnect(int) {}

std::vector<TenantSession::Completed> PricingService::drain_all() {
  std::vector<TenantSession::Completed> leftovers;
  if (drained_) return leftovers;
  drained_ = true;
  const double now = now_seconds();
  for (auto& [id, tenant] : sessions_) {
    auto done = tenant->drain(now);
    leftovers.insert(leftovers.end(),
                     std::make_move_iterator(done.begin()),
                     std::make_move_iterator(done.end()));
  }
  return leftovers;
}

std::vector<io::LatencyCdfRow> PricingService::latency_rows() const {
  std::vector<io::LatencyCdfRow> rows;
  for (const auto& [id, tenant] : sessions_) {
    auto tenant_rows = io::latency_cdf_rows(id, tenant->latency_us());
    rows.insert(rows.end(), tenant_rows.begin(), tenant_rows.end());
  }
  return rows;
}

}  // namespace cdsflow::service

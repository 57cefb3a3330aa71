#include "transport/udp_peer.hpp"

#include <stdexcept>
#include <utility>

namespace dmfsgd::transport {

namespace {

/// Throwing pass-through so the shared protocol knobs are validated (by the
/// one ValidateProtocolConfig) before any member that depends on them is
/// built.
const UdpPeerConfig& RequirePeerConfig(const UdpPeerConfig& config) {
  core::ValidateProtocolConfig(config, "UdpDmfsgdPeer");
  return config;
}

}  // namespace

UdpDmfsgdPeer::UdpDmfsgdPeer(const UdpPeerConfig& config, MeasurementFn measure)
    : config_(RequirePeerConfig(config)),
      measure_(std::move(measure)),
      rng_(config.seed),
      node_(config.id, config.rank, rng_) {
  if (!measure_) {
    throw std::invalid_argument("UdpDmfsgdPeer: measurement callback required");
  }
  (void)channel_.Register(config_.id);
  channel_.BindSink(
      [this](const core::MessageBatch& batch) { HandleBatch(batch); });
}

void UdpDmfsgdPeer::AddNeighbor(core::NodeId id, std::uint16_t port) {
  if (id == config_.id) {
    throw std::invalid_argument("UdpDmfsgdPeer::AddNeighbor: cannot neighbor self");
  }
  neighbors_.push_back(id);
  channel_.AddContact(id, port);
}

void UdpDmfsgdPeer::Probe() {
  if (neighbors_.empty()) {
    return;
  }
  auto pick = [&] {
    return neighbors_[rng_.UniformInt(
        static_cast<std::uint64_t>(neighbors_.size()))];
  };
  auto request = [&]() -> core::ProtocolMessage {
    if (config_.symmetric_metric) {
      return core::RttProbeRequest{config_.id};
    }
    return core::AbwProbeRequest{config_.id, node_.UCopy(), config_.tau};
  };
  if (!config_.coalesce_delivery) {
    for (std::size_t b = 0; b < config_.probe_burst; ++b) {
      channel_.Send(config_.id, pick(), request());
    }
    return;
  }
  // Coalesced burst: group the picks by target (first-pick order) so each
  // target gets one packed request datagram — and answers with one packed
  // reply datagram, the envelope the mini-batch fold consumes.
  std::vector<std::pair<core::NodeId, std::size_t>> grouped;
  for (std::size_t b = 0; b < config_.probe_burst; ++b) {
    const core::NodeId target = pick();
    bool found = false;
    for (auto& [id, count] : grouped) {
      if (id == target) {
        ++count;
        found = true;
        break;
      }
    }
    if (!found) {
      grouped.emplace_back(target, 1);
    }
  }
  for (const auto& [target, count] : grouped) {
    core::MessageBatch batch;
    batch.to = target;
    for (std::size_t c = 0; c < count; ++c) {
      batch.items.push_back(core::BatchItem{config_.id, request()});
    }
    channel_.SendBatch(std::move(batch));
  }
}

std::size_t UdpDmfsgdPeer::Pump(std::size_t max_datagrams) {
  return channel_.Pump(max_datagrams);
}

void UdpDmfsgdPeer::HandleBatch(const core::MessageBatch& batch) {
  if (!config_.coalesce_delivery || batch.items.size() <= 1) {
    for (const core::BatchItem& item : batch.items) {
      Handle(item.from, item.message);
    }
    return;
  }
  // Batched receive (DESIGN.md §13).  Requests are answered as one packed
  // reply batch per prober; replies fold into one mini-batch step — every
  // gradient term evaluated at the pre-batch coordinates, regularization
  // applied once per batch.  A malformed or foreign item (rank mismatch)
  // rejects the whole envelope: its updates are one accumulated step, so
  // item-level salvage would apply half a fold.
  try {
    core::GradientStepBatch du(config_.rank);
    core::GradientStepBatch dv(config_.rank);
    std::size_t applied = 0;  // committed only if the whole fold succeeds
    std::vector<core::MessageBatch> replies;
    auto reply_batch_for = [&](core::NodeId prober) -> core::MessageBatch& {
      for (core::MessageBatch& existing : replies) {
        if (existing.to == prober) {
          return existing;
        }
      }
      replies.emplace_back();
      replies.back().to = prober;
      return replies.back();
    };
    for (const core::BatchItem& item : batch.items) {
      std::visit(
          [&](const auto& typed) {
            using T = std::decay_t<decltype(typed)>;
            if constexpr (std::is_same_v<T, core::RttProbeRequest>) {
              reply_batch_for(typed.prober)
                  .items.push_back(core::BatchItem{
                      config_.id, core::RttProbeReply{config_.id, node_.UCopy(),
                                                      node_.VCopy()}});
            } else if constexpr (std::is_same_v<T, core::RttProbeReply>) {
              const double x = measure_(config_.id, typed.target);
              node_.AccumulateRttUpdate(x, typed.u, typed.v, config_.params, du,
                                        dv);
              ++applied;
            } else if constexpr (std::is_same_v<T, core::AbwProbeRequest>) {
              // All replies of the batch carry the same pre-batch v_j — the
              // mini-batch analogue of Algorithm 2's reply-before-update.
              const double x = measure_(typed.prober, config_.id);
              reply_batch_for(typed.prober)
                  .items.push_back(core::BatchItem{
                      config_.id,
                      core::AbwProbeReply{config_.id, x, node_.VCopy()}});
              node_.AccumulateAbwTargetUpdate(x, typed.u, config_.params, dv);
              ++applied;
            } else {
              node_.AccumulateAbwProberUpdate(typed.measurement, typed.v,
                                              config_.params, du);
            }
          },
          item.message);
    }
    node_.ApplyBatchU(du, config_.params);
    node_.ApplyBatchV(dv, config_.params);
    measurements_applied_ += applied;
    for (core::MessageBatch& reply : replies) {
      channel_.SendBatch(std::move(reply));
    }
  } catch (const std::invalid_argument&) {
    ++rejected_messages_;
  }
}

void UdpDmfsgdPeer::Handle(core::NodeId from, const core::ProtocolMessage& message) {
  // A hostile datagram that decodes but doesn't fit this deployment (e.g. a
  // foreign rank) must never take the node down: semantic rejects are
  // counted and the message dropped.
  try {
    std::visit(
        [&](const auto& typed) {
          using T = std::decay_t<decltype(typed)>;
          if constexpr (std::is_same_v<T, core::RttProbeRequest>) {
            channel_.Send(config_.id, from,
                          core::RttProbeReply{config_.id, node_.UCopy(),
                                              node_.VCopy()});
          } else if constexpr (std::is_same_v<T, core::RttProbeReply>) {
            // Algorithm 1: the prober measures x_ij itself (in a real agent
            // the request/reply timing *is* the measurement; here the
            // callback supplies it).
            const double x = measure_(config_.id, typed.target);
            node_.RttUpdate(x, typed.u, typed.v, config_.params);
            ++measurements_applied_;
          } else if constexpr (std::is_same_v<T, core::AbwProbeRequest>) {
            // Algorithm 2, target side: infer x_ij, reply with the
            // pre-update v_j (step 3 sends before step 4 updates).
            const double x = measure_(typed.prober, config_.id);
            channel_.Send(config_.id, from,
                          core::AbwProbeReply{config_.id, x, node_.VCopy()});
            node_.AbwTargetUpdate(x, typed.u, config_.params);
            ++measurements_applied_;
          } else {
            node_.AbwProberUpdate(typed.measurement, typed.v, config_.params);
          }
        },
        message);
  } catch (const std::invalid_argument&) {
    ++rejected_messages_;
  }
}

}  // namespace dmfsgd::transport

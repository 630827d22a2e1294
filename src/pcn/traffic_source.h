#pragma once

// Pluggable streaming payment workloads.
//
// A TrafficSource is a pull-based iterator over Payments in arrival order:
// the routing engine asks for the next payment only when the previous
// arrival event fires, so a 10^6-payment run never materialises the full
// workload (the ROADMAP's trace-replay / scenario-diversity item).
//
// Implementations:
//  * VectorSource    - replays a pre-built vector (compatibility shim; the
//                      classic prepare_scenario path).
//  * SyntheticSource - the paper's SS V-A workload (log-normal values,
//                      Poisson arrivals, Zipf endpoints), bit-identical to
//                      the historical generate_payments() for the same RNG.
//  * TraceSource     - CSV replay (time,sender,receiver,amount) with
//                      endpoint remapping onto the client set, value
//                      rescaling and horizon clipping.
//  * BurstySource    - diurnal traffic: sinusoidal-rate Poisson arrivals
//                      (thinning), synthetic values/endpoints.
//  * HotspotShiftSource - synthetic workload whose Zipf popularity ranks
//                      rotate every shift interval, stressing placement
//                      staleness.
//
// Every source emits payments with non-decreasing arrival_time and ids
// 1, 2, 3, ... in emission order; reset(seed) rewinds the source and
// re-derives its randomness from `seed` (a source is deterministic:
// construct-or-reset with equal seeds => equal payment streams).

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/samplers.h"
#include "pcn/workload.h"

namespace splicer::pcn {

class TrafficSource {
 public:
  virtual ~TrafficSource() = default;

  /// Next payment in arrival order; std::nullopt once exhausted.
  [[nodiscard]] virtual std::optional<Payment> next() = 0;

  /// Expected number of payments this source will emit (exact where the
  /// source knows it; a sizing hint, not a contract).
  [[nodiscard]] virtual std::size_t estimated_count() const = 0;

  /// Rewinds to the first payment, re-deriving randomness from `seed`.
  virtual void reset(std::uint64_t seed) = 0;

  /// Upper estimate of the last payment's deadline (arrival + timeout).
  /// Exact for vector/trace sources; config-derived for generative ones.
  /// Routers use it to bound their recurring price/probe ticks.
  [[nodiscard]] virtual double horizon_hint() const = 0;
};

/// Replays an existing payment vector. Non-owning when constructed from a
/// pointer (the Scenario shares one vector across scheme runs); owning when
/// constructed from a moved-in vector (the Engine's compatibility ctor).
class VectorSource final : public TrafficSource {
 public:
  explicit VectorSource(std::vector<Payment> payments);
  explicit VectorSource(const std::vector<Payment>* payments);

  [[nodiscard]] std::optional<Payment> next() override;
  [[nodiscard]] std::size_t estimated_count() const override;
  void reset(std::uint64_t seed) override;  // seed ignored: replay is fixed
  [[nodiscard]] double horizon_hint() const override { return horizon_; }

 private:
  std::vector<Payment> owned_;
  const std::vector<Payment>* view_;
  std::size_t cursor_ = 0;
  double horizon_ = 0.0;
};

/// The paper's synthetic workload as a stream. For the same starting RNG
/// state this emits exactly the payments the historical generate_payments()
/// returned (same draw order), which the CI fig7 byte-identity gate pins.
class SyntheticSource : public TrafficSource {
 public:
  SyntheticSource(std::vector<NodeId> clients, WorkloadConfig config,
                  common::Rng rng);

  [[nodiscard]] std::optional<Payment> next() override;
  [[nodiscard]] std::size_t estimated_count() const override {
    return config_.payment_count;
  }
  void reset(std::uint64_t seed) override;
  [[nodiscard]] double horizon_hint() const override;

  /// RNG state after the draws so far (generate_payments uses this to keep
  /// advancing the caller's generator exactly as the legacy code did).
  [[nodiscard]] const common::Rng& rng_state() const noexcept { return rng_; }

 protected:
  /// Draws the endpoint pair for payment `emitted_` (kHotspot overrides the
  /// rank rotation; draw order must stay sender, [imbalance], receiver).
  [[nodiscard]] virtual std::pair<NodeId, NodeId> draw_endpoints();
  /// Next arrival timestamp (kBursty overrides with a thinned process).
  [[nodiscard]] virtual double draw_arrival();
  /// Re-derives per-stream state after rng_ was rewound.
  virtual void rebuild();

  [[nodiscard]] NodeId distinct_receiver(NodeId sender, NodeId receiver) const;

  std::vector<NodeId> clients_;
  WorkloadConfig config_;
  common::Rng rng_;
  common::LogNormalSampler value_sampler_;
  common::ZipfSampler sender_sampler_;
  common::ZipfSampler receiver_sampler_;
  std::vector<NodeId> sender_order_;
  std::vector<NodeId> receiver_order_;
  std::size_t sink_count_ = 1;
  common::PoissonProcess arrivals_;
  std::size_t emitted_ = 0;
  double last_arrival_ = 0.0;
};

/// Diurnal/bursty arrivals: a non-homogeneous Poisson process with rate
///   rate(t) = base * (1 + amplitude * sin(2 pi t / period)),
/// realised by thinning a homogeneous process at the peak rate. Values and
/// endpoints are drawn exactly like the synthetic workload.
class BurstySource final : public SyntheticSource {
 public:
  BurstySource(std::vector<NodeId> clients, WorkloadConfig config,
               common::Rng rng);

  [[nodiscard]] double horizon_hint() const override;

 protected:
  [[nodiscard]] double draw_arrival() override;
};

/// Synthetic workload whose endpoint popularity rotates: every
/// hotspot_shift_interval_s of arrival time the sender/receiver rank
/// orders rotate by `hotspot_rotation` positions, so the hottest endpoints
/// move mid-run (stresses hub-placement staleness).
class HotspotShiftSource final : public SyntheticSource {
 public:
  HotspotShiftSource(std::vector<NodeId> clients, WorkloadConfig config,
                     common::Rng rng);

 protected:
  [[nodiscard]] std::pair<NodeId, NodeId> draw_endpoints() override;
  void rebuild() override;

 private:
  double next_shift_at_ = 0.0;
  std::size_t rotation_ = 1;
};

/// Replays a CSV transaction trace: one `time,sender,receiver,amount` row
/// per line (header rows and '#' comments are skipped). Rows stream off
/// disk one at a time; the constructor makes one cheap pre-scan pass to
/// learn the row count and time span (no materialisation).
///
///  * time     seconds, non-decreasing (throws on out-of-order rows);
///             shifted so the first replayed row arrives at t = 0
///  * endpoints remapped per config.trace_remap (see WorkloadConfig)
///  * amount   tokens, scaled by config.value_scale, floored at 1 token
///  * rows arriving at or past config.horizon_seconds are clipped
class TraceSource final : public TrafficSource {
 public:
  TraceSource(std::string path, std::vector<NodeId> clients,
              WorkloadConfig config);

  [[nodiscard]] std::optional<Payment> next() override;
  [[nodiscard]] std::size_t estimated_count() const override { return rows_; }
  void reset(std::uint64_t seed) override;  // seed ignored: replay is fixed
  [[nodiscard]] double horizon_hint() const override { return horizon_; }

  /// Rows dropped so far (malformed, a non-finite time or amount, a scaled
  /// amount too large for Amount, unmappable endpoint, self-pay with a
  /// single client, or past the horizon clip).
  [[nodiscard]] std::size_t rows_skipped() const noexcept { return skipped_; }

 private:
  struct Row {
    double time;
    std::string sender;
    std::string receiver;
    double amount;
  };
  [[nodiscard]] bool parse_line(const std::string& line, Row& row) const;
  [[nodiscard]] std::optional<NodeId> map_endpoint(const std::string& label);
  void rewind();

  std::string path_;
  std::vector<NodeId> clients_;
  WorkloadConfig config_;
  std::ifstream in_;
  // SPLICER_LINT_ALLOW(unordered-decl): keyed lookup/insert by trace label
  // only, never iterated; remap assignment follows first-seen file order.
  std::unordered_map<std::string, NodeId> remap_;
  std::size_t next_client_ = 0;  // first-seen round-robin remap cursor
  std::size_t rows_ = 0;         // replayable rows (pre-scan)
  double horizon_ = 0.0;         // last replayed deadline (pre-scan)
  double time_base_ = 0.0;       // first row's timestamp (shifted to 0)
  bool have_time_base_ = false;
  double last_arrival_ = 0.0;
  PaymentId next_id_ = 1;
  std::size_t skipped_ = 0;
};

/// Builds the source described by `config.kind` over `clients`. The RNG is
/// taken by value: the source owns an independent stream snapshot (trace
/// replay ignores it). Calls config.validate().
[[nodiscard]] std::unique_ptr<TrafficSource> make_traffic_source(
    std::vector<NodeId> clients, const WorkloadConfig& config, common::Rng rng);

/// Drains a source into a vector (tests, the legacy generate_payments path;
/// `limit` guards against unbounded sources).
[[nodiscard]] std::vector<Payment> drain(TrafficSource& source,
                                         std::size_t limit = ~std::size_t{0});

}  // namespace splicer::pcn

#pragma once

// Rate-based multi-path routing machinery (paper SS IV-D, Alg. 2), shared
// by SplicerRouter (hub mode) and SpiderRouter (source-routing mode):
//
//  * per-channel capacity price   lambda_ab += kappa (n_a + n_b - c_ab)   (21)
//  * per-direction imbalance price mu_ab    += eta   (m_a - m_b)          (22)
//  * routing price                xi_ab      = 2 lambda + mu_ab - mu_ba   (23)
//  * forwarding fee               fee_ab     = T_fee * xi_ab              (24)
//  * path price                   rho_p      = (1+T_fee) sum xi           (25)
//  * rate update                  r_p       += alpha (U'(r) - rho_p)      (26)
//  * window update on abort/success                                  (27)/(28)
//
// Demands are split into TUs of value in [Min-TU, Max-TU] and dripped onto
// k paths at the per-path rates; windows bound outstanding TUs per path.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "graph/disjoint_paths.h"
#include "routing/engine.h"
#include "routing/router.h"

namespace splicer::routing {

struct RateProtocolConfig {
  double tau_s = 0.2;          // price/probe update interval (Fig. 7(c) sweep)
  // Price steps act on the *capacity-relative* excess/imbalance: the same
  // absolute deficit is urgent on a 20-token channel and negligible on a
  // 60k-token trunk, and the channel's drain time is exactly what the
  // balance constraint protects. Calibrated so a flow that would drain its
  // channel within ~10 update periods gets priced past U'(r) before the
  // buffer empties - which is what makes the protocol deadlock-free in
  // practice.
  double kappa = 2.0;          // capacity price step (per relative excess)
  double eta = 0.4;            // imbalance price step (per relative imbalance)
  double alpha = 200.0;        // rate step
  /// Leaky-integrator factor applied to lambda/mu each update. Eq. (21)/(22)
  /// freeze when traffic stops entirely (m_a = m_b = 0); the mild decay lets
  /// throttled paths recover - a standard stabiliser for integral
  /// controllers (documented deviation, see DESIGN.md).
  double price_decay = 0.99;
  /// Ceiling on lambda and mu. Any price above ~U'(min_rate) already pins
  /// the rate to its floor; letting the integrator wind far past that only
  /// delays recovery (anti-windup clamp).
  double max_price = 4.0;
  double t_fee = 0.1;          // fee threshold parameter (0 < T_fee < 1)
  double delta_rtt_s = 0.2;    // Delta: expected lock duration per TU
  Amount min_tu = common::whole_tokens(1);  // paper: 1 token
  Amount max_tu = common::whole_tokens(4);  // paper: 4 tokens
  std::size_t k_paths = 5;                  // paper: 5
  graph::PathType path_type = graph::PathType::kEdgeDisjointWidest;
  double initial_rate_tps = 300.0;  // tokens/sec per path
  double min_rate_tps = 0.5;
  double max_rate_tps = 20000.0;
  double initial_window = 16.0;     // TUs outstanding per path
  double min_window = 1.0;
  double max_window = 500.0;
  double beta = 10.0;               // window decrease factor (paper: 10)
  double gamma = 0.1;               // window increase factor (paper: 0.1)
  double fee_rate_cap = 0.05;       // sanity cap on per-hop fee rate
  /// Source-side admission (Alg. 2 line 10): hold a TU at its smooth node
  /// while a downstream hop lacks funds. Only effective for routers with a
  /// global view (Splicer); disabling it shifts congestion handling onto
  /// the in-network waiting queues (Table II scheduling rows, ablations).
  bool source_gating = true;

  /// Throws std::invalid_argument unless tau is finite and > 0, 0 <
  /// price_decay <= 1, every min/max pair (rate, window, TU) is ordered and
  /// k_paths >= 1. A non-positive tau would re-arm the price tick at the
  /// same instant forever.
  void validate() const;
};

/// Base router implementing the full rate/window protocol. Subclasses bind
/// it to a concrete topology role by implementing the virtuals.
class RateRouterBase : public Router {
 public:
  explicit RateRouterBase(RateProtocolConfig config) : config_(config) {}

  void on_start(Engine& engine) override;
  void on_payment(Engine& engine, const pcn::Payment& payment) override;
  void on_tu_delivered(Engine& engine, const TransactionUnit& tu) override;
  void on_tu_failed(Engine& engine, const TransactionUnit& tu,
                    FailReason reason) override;
  void on_tu_forwarded(Engine& engine, const TransactionUnit& tu,
                       ChannelId channel, pcn::Direction direction) override;
  void on_payment_resolved(Engine& engine, PaymentId payment) override;

  [[nodiscard]] const RateProtocolConfig& protocol_config() const noexcept {
    return config_;
  }

  /// Payments still holding a pair_of_payment_ entry (tests: the
  /// on_payment_resolved hook must leave this at 0 after a full run).
  [[nodiscard]] std::size_t tracked_payments() const noexcept {
    return pair_of_payment_.size();
  }

  /// Current routing price xi of a directed channel (tests/diagnostics).
  [[nodiscard]] double channel_price(ChannelId channel, pcn::Direction d) const;
  /// Current fee rate (eq. 24) of a directed channel.
  [[nodiscard]] double fee_rate(ChannelId channel, pcn::Direction d) const;

  /// Per-path protocol state of a pair (tests/diagnostics); empty if the
  /// pair has never been admitted.
  struct PathDiagnostics {
    double rate_tps = 0.0;
    double window = 0.0;
    double price = 0.0;
    std::size_t outstanding = 0;
    std::size_t hops = 0;
  };
  [[nodiscard]] std::vector<PathDiagnostics> pair_diagnostics(NodeId from,
                                                              NodeId to) const;

 protected:
  /// Endpoints between which the k-path set is computed. For Splicer these
  /// are the two hubs; for Spider the sender/receiver themselves.
  struct PairKey {
    NodeId from;
    NodeId to;
    auto operator<=>(const PairKey&) const = default;
  };
  [[nodiscard]] virtual PairKey pair_of(const Engine& engine,
                                        const pcn::Payment& payment) const = 0;

  /// Wraps a pair-level path into the full client-to-client path (Splicer
  /// prepends/appends the client spokes; Spider returns it unchanged).
  /// Called once per pair at path-set creation; probes, fees and TUs all
  /// use the full path.
  [[nodiscard]] virtual std::optional<graph::Path> assemble_path(
      Engine& engine, NodeId from, NodeId to, const graph::Path& pair_path)
      const = 0;

  /// Seconds of routing-decision latency before the payment's demand is
  /// admitted (models end-host route computation for Spider; ~0 for hubs).
  [[nodiscard]] virtual double decision_delay(Engine& engine,
                                              const pcn::Payment& payment) {
    (void)engine;
    (void)payment;
    return 0.0;
  }

  /// Computes the k pair-level paths. Default: select_paths on the engine
  /// topology with the configured path type.
  [[nodiscard]] virtual std::vector<graph::Path> compute_pair_paths(
      Engine& engine, const PairKey& pair) const;

  /// Called once per protocol tick (every tau) after prices update;
  /// subclasses may add bookkeeping (e.g., Splicer's epoch sync counting
  /// happens on its own timer).
  virtual void on_tick(Engine& engine) { (void)engine; }

  /// Source-side admission (paper Alg. 2 line 10, F_ab < |d_i|): whether a
  /// TU with these hop amounts may be dispatched now. Splicer's smooth
  /// nodes see (epoch-synchronised) global state and hold the TU at the
  /// source when a downstream channel lacks funds; source-routing senders
  /// (Spider) have no such view and always dispatch.
  [[nodiscard]] virtual bool admit_tu(Engine& engine, const graph::Path& path,
                                      const std::vector<Amount>& hop_amounts) {
    (void)engine;
    (void)path;
    (void)hop_amounts;
    return true;
  }

 private:
  struct ChannelPrices {
    double lambda = 0.0;
    double mu[2] = {0.0, 0.0};
    double arrived_tokens[2] = {0.0, 0.0};  // m_a / m_b this window
  };
  struct PathState {
    graph::Path full_path;    // client -> ... -> client, ready to send on
    /// Directed-channel index (2*channel + direction) of every path edge,
    /// precomputed once at path creation: probes and fee schedules read the
    /// flat per-tick price array instead of re-deriving the direction and
    /// chasing the channel record on every visit.
    std::vector<std::uint32_t> hop_index;
    double rate_tps = 0.0;
    double window = 0.0;
    std::size_t outstanding = 0;
    // Pacing state: the earliest next send is last_send +
    // last_tu_tokens / *current* rate, re-evaluated at drip time so a
    // recovered rate takes effect immediately.
    double last_send = -1e9;
    double last_tu_tokens = 0.0;
    double hold_until = 0.0;  // source-gating backoff
    bool drip_scheduled = false;

    [[nodiscard]] double earliest_send(double min_rate) const {
      const double rate = rate_tps > min_rate ? rate_tps : min_rate;
      const double paced = last_send + last_tu_tokens / rate;
      return paced > hold_until ? paced : hold_until;
    }
  };
  struct DemandEntry {
    PaymentId payment = 0;
    Amount remaining = 0;
  };
  struct PairState {
    std::vector<PathState> paths;
    std::deque<DemandEntry> demands;
  };

  // Typed timer dispatch (Engine::schedule_timer): drip timers pack the
  // pair endpoints into `a` and the path index into `b`; deferred admits
  // pack the payment id into `a` and this sentinel into `b`. Path counts
  // are tiny (k paths per pair), so the sentinel can never collide.
  static constexpr std::uint64_t kAdmitTimer = ~std::uint64_t{0};
  [[nodiscard]] static constexpr std::uint64_t pack_pair(PairKey pair) noexcept {
    return (static_cast<std::uint64_t>(pair.from) << 32) | pair.to;
  }
  [[nodiscard]] static constexpr PairKey unpack_pair(std::uint64_t a) noexcept {
    return PairKey{static_cast<NodeId>(a >> 32),
                   static_cast<NodeId>(a & 0xffffffffu)};
  }
  void on_timer(Engine& engine, std::uint64_t a, std::uint64_t b) override;

  void admit_demand(Engine& engine, const pcn::Payment& payment);
  PairState* ensure_pair(Engine& engine, const PairKey& pair);
  /// One price-update + probe round: the body of the recurring tau timer
  /// (minus the subclass on_tick hook).
  void run_protocol_tick(Engine& engine);
  /// Eqs. (21)-(22) over every channel, then the flat price mirror.
  void update_prices(Engine& engine);
  /// Eqs. (25)-(26) over every pair, in pairs_ order.
  void probe_pairs(Engine& engine);
  void schedule_drip(Engine& engine, const PairKey& pair, std::size_t path_index);
  void try_send(Engine& engine, const PairKey& pair, std::size_t path_index);
  [[nodiscard]] double total_pair_rate(const PairState& pair) const;
  /// Per-hop amounts (eq. 24) for a TU of `value` on `path`, filled into
  /// fee_scratch_ — valid until the next fee_schedule call. Rejected admits
  /// (funds short, window re-check) thus cost no allocation; only a TU that
  /// is actually sent copies the schedule into its own storage. The network
  /// supplies each hop's ChannelPolicy, whose {fee_base, fee_proportional}
  /// compose with the price-derived rate (identity in a benign run: base 0,
  /// proportional 0.0 leaves every double bit-identical).
  [[nodiscard]] const std::vector<Amount>& fee_schedule(
      const pcn::Network& network, const PathState& path, Amount value) const;

  /// The one fee policy (eq. 24's rate term): shared by the public
  /// fee_rate() and the flat-array fee schedule so the formula can never
  /// diverge between the two data sources.
  [[nodiscard]] double fee_from_price(double price) const noexcept {
    return std::min(config_.fee_rate_cap, config_.t_fee * price);
  }
  /// Probe price rho_p of a path (eq. 25): the flat hop prices summed in
  /// hop order, times (1 + T_fee).
  [[nodiscard]] double path_price(const PathState& path) const;

  /// O(1) pair lookup for the per-TU paths (drips, sends, delivery acks).
  /// pairs_ stays an ordered map because probe_pairs' iteration order
  /// schedules drip events — it must remain the sorted order the frozen
  /// event stream was recorded with; its nodes are pointer-stable, so the
  /// index can hold plain pointers.
  [[nodiscard]] PairState& pair_state(const PairKey& pair) {
    return *pair_index_.at(pack_pair(pair));
  }

  RateProtocolConfig config_;
  std::vector<ChannelPrices> prices_;
  /// channel_price() of every directed channel, refreshed by update_prices
  /// each tick (prices only change there): probe/fee sums become flat-array
  /// reads, bit-identical to recomputing the price per visit.
  std::vector<double> price_flat_;

  std::map<PairKey, PairState> pairs_;
  // SPLICER_LINT_ALLOW(unordered-decl): keyed O(1) lookup cache over pairs_;
  // never iterated — every order-sensitive sweep walks the ordered pairs_ map.
  std::unordered_map<std::uint64_t, PairState*> pair_index_;
  // SPLICER_LINT_ALLOW(unordered-decl): keyed lookup/erase by PaymentId only,
  // never iterated; iteration order cannot reach the event stream.
  std::unordered_map<PaymentId, PairKey> pair_of_payment_;
  /// fee_schedule's output buffer: one live schedule at a time (try_send
  /// consumes it before the next call), so the per-TU vector is hoisted out
  /// of the send path — capacity reaches the longest path's hop count once
  /// and stays there. Mutable because fee_schedule is logically const.
  mutable std::vector<Amount> fee_scratch_;
};

}  // namespace splicer::routing

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
#include <span>
#include <vector>

#include "common/dense_id_map.h"
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
  /// Dispatches the timers this base arms: the tau tick, deferred admits
  /// and per-path drips (see kAdmitTimer).
  void on_timer(Engine& engine, std::uint64_t a, std::uint64_t b) override;

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

  /// Writes the full client-to-client path of a pair-level path into
  /// `full`, overwriting its nodes and edges but reusing their capacity
  /// (Splicer prepends/appends the client spokes; Spider copies it
  /// unchanged). False when the path is unusable. Called once per path at
  /// path-set creation; probes, fees and TUs all use the full path.
  [[nodiscard]] virtual bool assemble_path(Engine& engine, NodeId from, NodeId to,
                                           const graph::Path& pair_path,
                                           graph::Path& full) const = 0;

  /// Seconds of routing-decision latency before the payment's demand is
  /// admitted (models end-host route computation for Spider; ~0 for hubs).
  [[nodiscard]] virtual double decision_delay(Engine& engine,
                                              const pcn::Payment& payment) {
    (void)engine;
    (void)payment;
    return 0.0;
  }

  /// The k pair-level paths, read by ensure_pair before its next call.
  /// Default: select_paths on the engine topology with the configured path
  /// type, held in a member the next call overwrites.
  [[nodiscard]] virtual const std::vector<graph::Path>& compute_pair_paths(
      Engine& engine, const PairKey& pair);

  /// Source-side admission (paper Alg. 2 line 10, F_ab < |d_i|): whether a
  /// TU with these hop amounts may be dispatched now. Splicer's smooth
  /// nodes see (epoch-synchronised) global state and hold the TU at the
  /// source when a downstream channel lacks funds; source-routing senders
  /// (Spider) have no such view and always dispatch.
  [[nodiscard]] virtual bool admit_tu(Engine& engine, graph::PathView path,
                                      const std::vector<Amount>& hop_amounts) {
    (void)engine;
    (void)path;
    (void)hop_amounts;
    return true;
  }

  // Timer `b` values (Engine::schedule_timer). A drip timer carries the
  // pair index in `a` and the path's index within the pair in `b`; path
  // counts are tiny (k paths per pair), so sentinels counted down from the
  // top of the range never collide with one. A subclass that arms its own
  // timer takes the next value down and hands every other timer to
  // RateRouterBase::on_timer.
  /// A deferred admit (decision_delay > 0): `a` is the payment id.
  static constexpr std::uint64_t kAdmitTimer = ~std::uint64_t{0};
  /// The recurring tau tick: price update, probe sweep, re-arm.
  static constexpr std::uint64_t kTickTimer = kAdmitTimer - 1;

 private:
  struct ChannelPrices {
    double lambda = 0.0;
    double mu[2] = {0.0, 0.0};
    double arrived_tokens[2] = {0.0, 0.0};  // m_a / m_b this window
  };
  /// Window and pacing state of one path: what try_send and the window
  /// updates read, kept apart from the rate and hop arrays the tau sweep
  /// scans.
  struct PathPacing {
    double window = 0.0;
    // Pacing state: the earliest next send is last_send +
    // last_tu_tokens / *current* rate, re-evaluated at drip time so a
    // recovered rate takes effect immediately.
    double last_send = -1e9;
    double last_tu_tokens = 0.0;
    double hold_until = 0.0;  // source-gating backoff
    bool drip_scheduled = false;
  };
  struct DemandEntry {
    PaymentId payment = 0;
    Amount remaining = 0;
  };
  /// Every pair's demand FIFO, threaded through one node vector: a pair
  /// holds only the head and tail ids of its list, and popped nodes go on a
  /// free list that the next push reuses, so the pool grows to the peak
  /// number of queued demands and no further.
  class DemandPool {
   public:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};
    struct Fifo {
      std::uint32_t head = kNone;
      std::uint32_t tail = kNone;
      [[nodiscard]] bool empty() const noexcept { return head == kNone; }
    };

    /// The oldest entry; valid until the next push (a push may grow the
    /// node vector).
    [[nodiscard]] DemandEntry& front(const Fifo& fifo) { return nodes_[fifo.head].entry; }
    void push_back(Fifo& fifo, DemandEntry entry) {
      const std::uint32_t node = acquire(entry);
      if (fifo.empty()) {
        fifo.head = node;
      } else {
        nodes_[fifo.tail].next = node;
      }
      fifo.tail = node;
    }
    void push_front(Fifo& fifo, DemandEntry entry) {
      const std::uint32_t node = acquire(entry);
      nodes_[node].next = fifo.head;
      fifo.head = node;
      if (fifo.tail == kNone) fifo.tail = node;
    }
    void pop_front(Fifo& fifo) {
      const std::uint32_t node = fifo.head;
      fifo.head = nodes_[node].next;
      if (fifo.head == kNone) fifo.tail = kNone;
      nodes_[node].next = free_;
      free_ = node;
    }
#ifdef SPLICER_AUDIT
    /// Nodes on the list starting at `node` (kNone: none); throws once the
    /// walk passes the pool size, which only a cycle can do.
    [[nodiscard]] std::size_t length(std::uint32_t node) const;
    [[nodiscard]] std::size_t free_length() const { return length(free_); }
    [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
#endif

   private:
    struct Node {
      DemandEntry entry;
      std::uint32_t next = kNone;
    };
    std::uint32_t acquire(DemandEntry entry) {
      std::uint32_t node = free_;
      if (node == kNone) {
        node = static_cast<std::uint32_t>(nodes_.size());
        nodes_.emplace_back();
      } else {
        free_ = nodes_[node].next;
      }
      nodes_[node] = Node{entry, kNone};
      return node;
    }
    std::vector<Node> nodes_;
    std::uint32_t free_ = kNone;
  };
  /// One (from, to) pair; its paths are the path ids
  /// [first_path, first_path + path_count).
  struct PairState {
    PairKey key;
    std::uint32_t first_path = 0;
    std::uint32_t path_count = 0;
    DemandPool::Fifo demands;
  };
  static constexpr std::uint32_t kNoPair = ~std::uint32_t{0};

  void admit_demand(Engine& engine, const pcn::Payment& payment);
  /// Index of the pair in pairs_, creating it (and its paths) on first
  /// touch; kNoPair if no usable path exists. The one insert: it appends to
  /// pairs_, the path store and every per-path array, so callers re-index
  /// after it and hold no reference or slice into that storage across it.
  std::uint32_t ensure_pair(Engine& engine, const PairKey& pair);
  /// Position in sweep_order_ of the first pair not below `key`.
  [[nodiscard]] std::vector<std::uint32_t>::const_iterator sweep_position(
      const PairKey& key) const;
  /// The full client -> ... -> client path of a path id: a slice of the
  /// path store, valid until the next ensure_pair (whose appends may
  /// relocate the store).
  [[nodiscard]] graph::PathView full_path(std::uint32_t path) const {
    const std::uint32_t begin = hop_begin_[path];
    const std::uint32_t hops = hop_begin_[path + 1] - begin;
    return {std::span(path_nodes_).subspan(begin + path, hops + 1),
            std::span(path_edges_).subspan(begin, hops)};
  }
  /// Eqs. (21)-(22) over every channel, then the flat price mirror.
  void update_prices(Engine& engine);
  /// Eqs. (25)-(26) over every pair in storage order, then the drips of
  /// every pair with pending demand in sweep_order_.
  void probe_pairs(Engine& engine);
  void schedule_drip(Engine& engine, std::uint32_t pair, std::size_t path_index);
  void try_send(Engine& engine, std::uint32_t pair, std::size_t path_index);
  /// Global id of the pair's `index`-th path.
  [[nodiscard]] std::uint32_t path_id(std::uint32_t pair, std::size_t index) const {
    return pairs_[pair].first_path + static_cast<std::uint32_t>(index);
  }
  [[nodiscard]] double earliest_send(std::uint32_t path) const {
    const double rate =
        rate_tps_[path] > config_.min_rate_tps ? rate_tps_[path] : config_.min_rate_tps;
    const PathPacing& pacing = pacing_[path];
    const double paced = pacing.last_send + pacing.last_tu_tokens / rate;
    return paced > pacing.hold_until ? paced : pacing.hold_until;
  }
  /// Per-hop amounts (eq. 24) for a TU of `value` on `path`, filled into
  /// fee_scratch_ — valid until the next fee_schedule call. Neither a
  /// rejected admit nor a sent TU allocates: send_tu copies the schedule
  /// into engine storage the TU recycles. The network
  /// supplies each hop's ChannelPolicy, whose {fee_base, fee_proportional}
  /// compose with the price-derived rate (identity in a benign run: base 0,
  /// proportional 0.0 leaves every double bit-identical).
  [[nodiscard]] const std::vector<Amount>& fee_schedule(
      const pcn::Network& network, std::uint32_t path, Amount value) const;

  /// The one fee policy (eq. 24's rate term): shared by the public
  /// fee_rate() and the flat-array fee schedule so the formula can never
  /// diverge between the two data sources.
  [[nodiscard]] double fee_from_price(double price) const noexcept {
    return std::min(config_.fee_rate_cap, config_.t_fee * price);
  }
  /// Probe price rho_p of a path (eq. 25): the flat hop prices summed in
  /// hop order, times (1 + T_fee).
  [[nodiscard]] double path_price(std::uint32_t path) const;

  RateProtocolConfig config_;
  std::vector<ChannelPrices> prices_;
  /// channel_price() of every directed channel, refreshed by update_prices
  /// each tick (prices only change there): probe/fee sums become flat-array
  /// reads, bit-identical to recomputing the price per visit.
  std::vector<double> price_flat_;

  /// Every pair ever admitted, in creation order. Append-only (ensure_pair
  /// is the one insert, nothing erases), so a pair's index is stable for
  /// the router's lifetime. Trivially copyable records: the demand queues
  /// live in demand_pool_.
  std::vector<PairState> pairs_;
  DemandPool demand_pool_;
  /// pairs_ indices sorted by PairKey, kept sorted by ensure_pair's binary-
  /// search insert; ensure_pair and pair_diagnostics find a pair by binary
  /// search here. The one order-sensitive structure: probe_pairs schedules
  /// drips in this order, the sorted pair order the frozen event stream was
  /// recorded with.
  std::vector<std::uint32_t> sweep_order_;
  // Per-path state, indexed by path id; a pair's paths are one contiguous
  // id range, so the tau sweep is a linear scan of these arrays. The
  // largest per-path record, pacing_, is never swept and lives in a deque:
  // it grows in fixed chunks instead of by doubling, whose freed blocks
  // fragmented the heap over many runs in one process.
  std::vector<double> rate_tps_;
  std::vector<std::uint32_t> outstanding_;
  std::deque<PathPacing> pacing_;
  /// Directed-channel index (2*channel + direction) of every hop of every
  /// path, precomputed once at path creation: probes and fee schedules read
  /// the flat per-tick price array instead of re-deriving the direction and
  /// chasing the channel record on every visit. Path p's hops are
  /// hops_[hop_begin_[p], hop_begin_[p + 1]).
  std::vector<std::uint32_t> hops_;
  std::vector<std::uint32_t> hop_begin_{0};
  /// The path store: the full path of every path id, in CSR form. Path p's
  /// edges are path_edges_[hop_begin_[p], hop_begin_[p + 1]) and its nodes
  /// the one-longer run starting at path_nodes_[hop_begin_[p] + p].
  /// try_send's TUs view a slice (full_path), and send_tu copies it.
  std::vector<NodeId> path_nodes_;
  std::vector<ChannelId> path_edges_;
  /// ensure_pair's reused buffers: the default compute_pair_paths result
  /// and the path assemble_path writes.
  std::vector<graph::Path> pair_paths_;
  graph::Path assembled_;
  /// The pair of each admitted payment, until on_payment_resolved.
  common::DenseIdMap<std::uint32_t> pair_of_payment_;
#ifdef SPLICER_AUDIT
  /// SPLICER_AUDIT witnesses. try_send holds a slice of the path store from
  /// the obstruction check until send_tu returns; ensure_pair throws if it
  /// runs inside that span. Each tau tick checks that the nodes on every
  /// pair's demand list plus the free list add up to the pool size.
  bool audit_slice_held_ = false;
  void audit_demand_pool() const;
#endif
  /// fee_schedule's output buffer: one live schedule at a time (try_send
  /// hands it to send_tu, which copies it, before the next call), so
  /// capacity reaches the longest path's hop count once and stays there.
  /// Mutable because fee_schedule is logically const.
  mutable std::vector<Amount> fee_scratch_;
};

}  // namespace splicer::routing

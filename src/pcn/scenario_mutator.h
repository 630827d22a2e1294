#pragma once

// Hostile-world scenario mutators: fault injection and network churn.
//
// The paper's evaluation runs in a benign world — no node ever fails, no
// channel ever closes, fees follow one global schedule and paths are
// unbounded in timelock depth. A ScenarioMutator is the adversarial
// counterpart of pcn::TrafficSource: a pull-based, deterministic stream of
// typed MutationEvents in nondecreasing time order that the routing engine
// replays through its scheduler, so mutations compose with any workload
// (synthetic / trace / bursty / hotspot).
//
// Implementations:
//  * NodeFaultMutator   - node failure/recovery with exponential
//                         inter-failure and repair times;
//  * ChannelChurnMutator- channel close/reopen with exponential
//                         inter-close and reopen times (the engine refunds
//                         in-flight TUs holding locks on a closing channel);
//  * FeePolicyMutator   - rewrites a random edge's {fee_base,
//                         fee_proportional, min_htlc} policy, generalising
//                         the single fee_from_price seam of the rate
//                         protocol to per-edge schedules (CLoTH's model);
//  * TimelockMutator    - rewrites a random edge's timelock cost, which
//                         bounds admissible path depth against the
//                         per-path timelock budget.
//
// Determinism contract (mirrors TrafficSource): next() emits events with
// nondecreasing time; reset(seed) rewinds and re-derives all randomness
// from `seed` — construct-or-reset with equal seeds yields equal streams.
// Mutator randomness is seeded from HostileConfig::seed, never from the
// engine's RNG, so enabling mutators perturbs no workload or engine draw.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "pcn/channel.h"
#include "pcn/types.h"

namespace splicer::pcn {

/// One typed mutation. `policy` is the payload of kFeePolicy (fee fields)
/// and kTimelock (timelock field); the other kinds ignore it.
struct MutationEvent {
  enum class Kind : std::uint8_t {
    kNodeDown,       // node: target node went offline
    kNodeUp,         // node: target node recovered
    kChannelClose,   // channel: target channel closed
    kChannelReopen,  // channel: target channel reopened
    kFeePolicy,      // channel: new {fee_base, fee_proportional, min_htlc}
    kTimelock,       // channel: new per-edge timelock cost
  };

  double time = 0.0;
  Kind kind = Kind::kNodeDown;
  NodeId node = 0;
  ChannelId channel = 0;
  ChannelPolicy policy{};
};

[[nodiscard]] const char* to_string(MutationEvent::Kind kind) noexcept;

/// Knobs for the hostile-world scenario pack. All rates are events per
/// second across the whole network; every rate defaults to 0, in which
/// case the corresponding mutator is not built at all and the simulation
/// is byte-identical to a benign run (the CI fig7 gate pins this).
struct HostileConfig {
  /// Seed for the mutation streams. Deliberately separate from
  /// EngineConfig::seed: mutation randomness must not consume engine RNG
  /// draws.
  std::uint64_t seed = 0x486f7374696c65ull;  // "Hostile"

  // ---- NodeFaultMutator ------------------------------------------------
  double fault_rate = 0.0;   // node failures per second
  double mean_down_s = 0.5;  // mean outage duration (exponential)

  // ---- ChannelChurnMutator ---------------------------------------------
  double churn_rate = 0.0;     // channel closes per second
  double mean_closed_s = 0.5;  // mean closed duration (exponential)

  // ---- FeePolicyMutator ------------------------------------------------
  double fee_policy_rate = 0.0;  // per-edge policy rewrites per second
  Amount fee_base_cap = common::whole_tokens(1);  // fee_base ~ U[0, cap]
  double fee_proportional_cap = 0.01;             // fee_prop ~ U[0, cap]
  Amount min_htlc_cap = 0;                        // min_htlc ~ U[0, cap]

  // ---- TimelockMutator -------------------------------------------------
  double timelock_rate = 0.0;      // per-edge timelock rewrites per second
  std::uint32_t timelock_max = 4;  // rewritten cost ~ U{1, ..., max}

  /// Per-path timelock budget enforced by the routers: a path whose edge
  /// timelock costs (default 1 each) sum above this is inadmissible.
  /// kUnboundedTimelock (the default) disables the bound; 0 is invalid
  /// (it would reject every path, including single hops).
  static constexpr std::uint32_t kUnboundedTimelock = ~0u;
  std::uint32_t timelock_budget = kUnboundedTimelock;

  /// Any mutator has a nonzero rate (the engine builds mutators at all
  /// only then — the zero-rate path must not even size a vector).
  [[nodiscard]] bool any_mutation_active() const noexcept {
    return fault_rate > 0 || churn_rate > 0 || fee_policy_rate > 0 ||
           timelock_rate > 0;
  }

  /// Throws std::invalid_argument on inconsistent knobs: negative rates,
  /// non-positive mean down/closed times, negative fee caps, zero
  /// timelock_max, timelock budgets < 1.
  void validate() const;
};

/// Pull-based deterministic stream of mutation events (see file comment).
class ScenarioMutator {
 public:
  virtual ~ScenarioMutator() = default;

  /// Next event in time order; std::nullopt once exhausted. Times are
  /// nondecreasing within one mutator's stream.
  [[nodiscard]] virtual std::optional<MutationEvent> next() = 0;

  /// Rewinds to the first event, re-deriving randomness from `seed`.
  virtual void reset(std::uint64_t seed) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Shared machinery for the Poisson-driven mutators: primary events arrive
/// as a homogeneous Poisson process at `rate` over [0, horizon); each may
/// schedule one follow-up (recovery/reopen), and emission merges the two
/// in (time, sequence) order so next() is globally sorted.
class PoissonMutator : public ScenarioMutator {
 public:
  PoissonMutator(double rate, double horizon, std::uint64_t seed);

  [[nodiscard]] std::optional<MutationEvent> next() final;
  void reset(std::uint64_t seed) final;

 protected:
  /// Fills `event` (kind/target/payload) for the primary event at `time`.
  /// Returns the follow-up delay to schedule, or a value <= 0 for none.
  virtual double fill_primary(MutationEvent& event) = 0;
  /// Fills the follow-up for a primary previously emitted on `target`.
  virtual void fill_followup(MutationEvent& event, std::uint64_t target) = 0;
  /// Re-derives subclass state after rng_ was rewound.
  virtual void rebuild() {}

  common::Rng rng_;

 private:
  struct Followup {
    double time;
    std::uint64_t seq;
    std::uint64_t target;
  };

  /// The follow-up key of a primary event (node or channel id).
  [[nodiscard]] static std::uint64_t event_target(
      const MutationEvent& event) noexcept;

  double rate_;
  double horizon_;
  double next_primary_ = 0.0;
  std::uint64_t seq_ = 0;
  // Min-heap on (time, seq): equal-time follow-ups emit in schedule order.
  std::vector<Followup> followups_;
};

class NodeFaultMutator final : public PoissonMutator {
 public:
  NodeFaultMutator(std::size_t node_count, double fault_rate,
                   double mean_down_s, double horizon, std::uint64_t seed);
  [[nodiscard]] std::string name() const override { return "node-fault"; }

 protected:
  double fill_primary(MutationEvent& event) override;
  void fill_followup(MutationEvent& event, std::uint64_t target) override;

 private:
  std::size_t node_count_;
  double mean_down_s_;
};

class ChannelChurnMutator final : public PoissonMutator {
 public:
  ChannelChurnMutator(std::size_t channel_count, double churn_rate,
                      double mean_closed_s, double horizon,
                      std::uint64_t seed);
  [[nodiscard]] std::string name() const override { return "channel-churn"; }

 protected:
  double fill_primary(MutationEvent& event) override;
  void fill_followup(MutationEvent& event, std::uint64_t target) override;

 private:
  std::size_t channel_count_;
  double mean_closed_s_;
};

class FeePolicyMutator final : public PoissonMutator {
 public:
  FeePolicyMutator(std::size_t channel_count, const HostileConfig& config,
                   double horizon, std::uint64_t seed);
  [[nodiscard]] std::string name() const override { return "fee-policy"; }

 protected:
  double fill_primary(MutationEvent& event) override;
  void fill_followup(MutationEvent& event, std::uint64_t target) override;

 private:
  std::size_t channel_count_;
  Amount fee_base_cap_;
  double fee_proportional_cap_;
  Amount min_htlc_cap_;
};

class TimelockMutator final : public PoissonMutator {
 public:
  TimelockMutator(std::size_t channel_count, double timelock_rate,
                  std::uint32_t timelock_max, double horizon,
                  std::uint64_t seed);
  [[nodiscard]] std::string name() const override { return "timelock"; }

 protected:
  double fill_primary(MutationEvent& event) override;
  void fill_followup(MutationEvent& event, std::uint64_t target) override;

 private:
  std::size_t channel_count_;
  std::uint32_t timelock_max_;
};

/// Builds the mutators `config` enables (zero-rate mutators are omitted;
/// an all-zero config returns an empty vector), in a fixed order —
/// node-fault, channel-churn, fee-policy, timelock — with per-mutator
/// sub-seeds derived from config.seed. `horizon` bounds event generation
/// (pass the workload horizon plus any slack). Calls config.validate().
[[nodiscard]] std::vector<std::unique_ptr<ScenarioMutator>> make_mutators(
    const HostileConfig& config, std::size_t node_count,
    std::size_t channel_count, double horizon);

}  // namespace splicer::pcn

#include "chaos/executor.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <utility>

#include "attacks/registry.h"
#include "core/batch_gradient.h"
#include "core/exact_algorithm.h"
#include "core/quadratic_cost.h"
#include "data/mean_estimation.h"
#include "data/regression.h"
#include "dgd/projection.h"
#include "dgd/schedule.h"
#include "filters/registry.h"
#include "rng/rng.h"
#include "runtime/runtime.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "util/error.h"

namespace redopt::chaos {

namespace {

bool in_window(const FaultSpec& spec, std::size_t t) {
  if (t < spec.from) return false;
  return spec.until == 0 || t < spec.until;
}

bool all_finite(const linalg::Vector& v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

/// The last few estimates, newest first, in a fixed ring: at(s) is the
/// estimate s rounds back, for s < size() (at most the capacity).
class EstimateHistory {
 public:
  explicit EstimateHistory(std::size_t capacity) : ring_(capacity) {}

  void push_front(const linalg::Vector& x) {
    head_ = (head_ + ring_.size() - 1) % ring_.size();
    ring_[head_] = x;
    size_ = std::min(size_ + 1, ring_.size());
  }
  const linalg::Vector& at(std::size_t s) const { return ring_[(head_ + s) % ring_.size()]; }
  std::size_t size() const { return size_; }

 private:
  std::vector<linalg::Vector> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace

std::unique_ptr<attacks::Attack> make_scenario_attack(const std::string& name, double param) {
  attacks::AttackParams p;
  if (name == "gradient_reverse") p.scale = param;
  if (name == "random") p.sigma = param;
  if (name == "large_norm") p.magnitude = param;
  if (name == "lie") p.z = param;
  if (name == "ipm") p.c = param;
  if (name == "camouflage" || name == "orthogonal_drift") p.aggression = param;
  if (name == "poisoned_cost") p.noise = param;
  if (name == "mimic") p.mimic_target = static_cast<std::size_t>(param);
  return attacks::make_attack(name, p);
}

double scenario_schedule_coefficient(const std::string& filter, std::size_t n, std::size_t f) {
  if (filter == "cge" || filter == "sum") return 1.0 / (2.0 * static_cast<double>(n - f));
  return 0.5;
}

MaterializedScenario materialize_scenario(const Scenario& s) {
  rng::Rng problem_rng = rng::Rng(s.seed).fork("problem");

  std::vector<bool> faulty(s.n, false);
  for (const FaultSpec& spec : s.faults) {
    if (spec.kind != FaultSpec::Kind::kStraggler) faulty[spec.agent] = true;
  }
  std::vector<std::size_t> never_faulty;
  for (std::size_t i = 0; i < s.n; ++i) {
    if (!faulty[i]) never_faulty.push_back(i);
  }
  REDOPT_REQUIRE(!never_faulty.empty(), "scenario: every agent is faulty");

  // Elastic scenarios anchor the reference on the agents that are both
  // never faulty and still live in the final round — the cohort whose
  // aggregate the trainer can actually serve once churn settles.  An
  // empty intersection falls back to the never-faulty set.
  std::vector<std::size_t> reference_agents;
  for (std::size_t i : never_faulty) {
    if (s.member_at(i, s.rounds - 1)) reference_agents.push_back(i);
  }
  if (reference_agents.empty()) reference_agents = never_faulty;

  MaterializedScenario out;
  if (s.problem == "mean") {
    linalg::Vector mu(s.d);
    for (auto& v : mu) v = problem_rng.uniform(-3.0, 3.0);
    auto instance = data::make_mean_estimation(mu, s.noise_sigma, s.n, s.f, problem_rng);
    out.reference = data::honest_sample_mean(instance, reference_agents);
    out.problem = std::move(instance.problem);
  } else if (s.problem == "block_regression") {
    linalg::Vector x_star(s.d);
    for (auto& v : x_star) v = problem_rng.uniform(-3.0, 3.0);
    auto instance =
        data::make_orthonormal_regression(s.n, s.d, s.f, s.noise_sigma, x_star, problem_rng);
    out.reference = data::block_regression_argmin(instance, reference_agents);
    out.problem = std::move(instance.problem);
  } else if (s.problem == "streaming_regression") {
    linalg::Vector x_star(s.d);
    for (auto& v : x_star) v = problem_rng.uniform(-3.0, 3.0);
    out.problem.f = s.f;
    for (std::size_t i = 0; i < s.n; ++i) {
      auto cost = std::make_shared<data::StreamingLeastSquaresCost>(
          s.d, x_star, s.noise_sigma, problem_rng.fork("stream-agent-" + std::to_string(i)));
      out.streams.push_back(cost);
      out.problem.costs.push_back(cost);
    }
    out.problem.validate();
    // Reference: the honest aggregate argmin over the FINAL dataset —
    // clone each reference agent's stream (rng state included) and absorb
    // its entire arrival schedule, exactly as its replica will.
    std::vector<std::shared_ptr<const data::StreamingLeastSquaresCost>> final_costs;
    for (std::size_t i : reference_agents) {
      auto final_cost = std::make_shared<data::StreamingLeastSquaresCost>(*out.streams[i]);
      for (const StreamEvent& event : s.stream) {
        if (event.agent == i) final_cost->absorb(event.rows);
      }
      final_costs.push_back(std::move(final_cost));
    }
    out.reference = data::streaming_argmin(final_costs);
  } else {
    REDOPT_REQUIRE(s.problem == "regression", "scenario: unknown problem family: " + s.problem);
    linalg::Vector x_star(s.d);
    for (auto& v : x_star) v = problem_rng.uniform(-3.0, 3.0);
    const auto matrix = data::redundant_matrix(s.n, s.d, s.f, problem_rng);
    auto instance = data::make_regression(matrix, x_star, s.noise_sigma, s.f, problem_rng);
    try {
      out.reference = data::regression_argmin(instance, reference_agents);
    } catch (const PreconditionError&) {
      // Over-budget scenarios can leave fewer than n - 2f honest rows, so
      // the honest argmin need not be unique; anchor on the planted
      // solution instead (identical to x_H whenever noise_sigma == 0).
      out.reference = x_star;
    }
    out.problem = std::move(instance.problem);
  }
  return out;
}

ScenarioResult run_scenario(const Scenario& s, const ExecutorOptions& options) {
  s.validate();
  REDOPT_REQUIRE(!s.elastic(),
                 "scenario carries membership/stream events; run it through "
                 "elastic::run_elastic (chaos-replay routes there automatically)");

  // Telemetry handles first: registration must happen in a serial context.
  auto& reg = telemetry::registry();
  const auto metric_scenarios = reg.counter("chaos.scenarios");
  const auto metric_rounds = reg.counter("chaos.rounds");
  const auto metric_byzantine = reg.counter("chaos.byzantine_replies");
  const auto metric_crashed = reg.counter("chaos.crashed_absences");
  const auto metric_stale = reg.counter("chaos.stale_replies");
  const auto metric_dropped = reg.counter("chaos.dropped_replies");
  const auto metric_delayed = reg.counter("chaos.delayed_replies");
  const auto metric_duplicated = reg.counter("chaos.duplicated_replies");

  telemetry::ScopedSpan scenario_span("chaos.scenario");
  scenario_span.attr("n", static_cast<std::uint64_t>(s.n))
      .attr("f", static_cast<std::uint64_t>(s.f))
      .attr("rounds", static_cast<std::uint64_t>(s.rounds));

  const MaterializedScenario built = materialize_scenario(s);
  const auto& problem = built.problem;
  const std::size_t n = s.n;
  const std::size_t d = s.d;

  // Per-agent fault lookup (index by agent; at most one spec per agent).
  std::vector<const FaultSpec*> spec_of(n, nullptr);
  for (const FaultSpec& spec : s.faults) spec_of[spec.agent] = &spec;

  const rng::Rng root(s.seed);
  rng::Rng channel_rng = root.fork("channel");
  std::vector<rng::Rng> attack_rngs;
  attack_rngs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    attack_rngs.push_back(root.fork("byzantine-agent-" + std::to_string(i)));
  }
  std::vector<std::unique_ptr<attacks::Attack>> attack_of(n);
  for (const FaultSpec& spec : s.faults) {
    if (spec.kind == FaultSpec::Kind::kByzantine) {
      attack_of[spec.agent] = make_scenario_attack(spec.attack, spec.attack_param);
    }
  }

  auto factory = options.filter_factory;
  if (!factory) {
    factory = [](const std::string& name, std::size_t fn, std::size_t ff) {
      filters::FilterParams fp;
      fp.n = fn;
      fp.f = ff;
      return filters::FilterPtr(filters::make_filter(name, fp));
    };
  }
  // Round-local filters, cached by the (reply count, fault budget) they
  // were built for.  std::map keeps the cache iteration deterministic.
  std::map<std::pair<std::size_t, std::size_t>, filters::FilterPtr> filter_cache;
  auto filter_for = [&](std::size_t n_round,
                        std::size_t* f_used) -> const filters::FilterPtr& {
    std::size_t f_try = std::min(s.f, n_round == 0 ? std::size_t{0} : n_round - 1);
    while (true) {
      const auto key = std::make_pair(n_round, f_try);
      auto it = filter_cache.find(key);
      if (it != filter_cache.end()) {
        *f_used = f_try;
        return it->second;
      }
      try {
        auto made = factory(s.filter, n_round, f_try);
        *f_used = f_try;
        return filter_cache.emplace(key, std::move(made)).first->second;
      } catch (const PreconditionError&) {
        if (f_try == 0) break;
        --f_try;
      }
    }
    // Even f = 0 failed (e.g. krum with too few replies): degrade to the
    // plain average so the execution stays total.
    const auto key = std::make_pair(n_round, std::size_t{0});
    auto it = filter_cache.find(key);
    *f_used = 0;
    if (it != filter_cache.end()) return it->second;
    filters::FilterParams fp;
    fp.n = n_round;
    fp.f = 0;
    return filter_cache.emplace(key, filters::make_filter("mean", fp)).first->second;
  };

  const dgd::HarmonicSchedule schedule(scenario_schedule_coefficient(s.filter, n, s.f));
  const dgd::BoxProjection projection = dgd::BoxProjection::cube(d, 10.0);

  rng::Rng x0_rng = root.fork("x0");
  linalg::Vector x(d);
  for (auto& v : x) v = x0_rng.uniform(-5.0, 5.0);
  x = projection.project(x);

  ScenarioResult result;
  result.reference = built.reference;
  result.initial_distance = linalg::distance(x, built.reference);
  result.max_distance = result.initial_distance;

  // Estimate history for stragglers: history.at(s) is x^{t-s} (clamped).
  std::size_t max_staleness = 0;
  for (const FaultSpec& spec : s.faults) {
    if (spec.kind == FaultSpec::Kind::kStraggler) {
      max_staleness = std::max(max_staleness, spec.staleness);
    }
  }
  EstimateHistory history(max_staleness + 1);
  history.push_front(x);

  // Every buffer below lives across rounds.  Gradient-sized vectors
  // circulate between the per-agent emission slots, the inbox, the
  // channel's delay line and the filter input by swap, so a round
  // allocates only inside the filter, the attacks, and the costs that
  // have no in-place gradient.
  const std::unique_ptr<core::BatchGradientEvaluator> evaluator =
      core::BatchGradientEvaluator::try_create(problem.costs);
  std::vector<linalg::Vector> residual_ws(evaluator != nullptr ? n : 0);
  std::vector<linalg::Vector> payloads(n);
  std::vector<char> emits(n, 0);
  std::vector<std::size_t> staleness_of(n, 0);
  std::vector<linalg::Vector> spare;     // idle gradient-sized vectors
  std::vector<linalg::Vector> observed;  // what the adversary sees
  std::vector<linalg::Vector> received;  // the filter's input
  linalg::Vector true_gradient;
  linalg::Vector duplicate;

  // Vector pool: hands out an idle vector (empty only until the pool has
  // warmed up) and takes vectors back.
  auto take_spare = [&spare]() {
    if (spare.empty()) return linalg::Vector();
    linalg::Vector v = std::move(spare.back());
    spare.pop_back();
    return v;
  };
  // Resizes a pooled vector list without freeing or allocating vectors.
  auto resize_pooled = [&](std::vector<linalg::Vector>& list, std::size_t size) {
    while (list.size() > size) {
      spare.push_back(std::move(list.back()));
      list.pop_back();
    }
    while (list.size() < size) list.push_back(take_spare());
  };

  // Replies delayed by the channel: a ring of delivery rounds (a delay is
  // at most max_delay, so max_delay + 1 buckets never collide).
  struct Delayed {
    std::size_t agent = 0;
    std::size_t emitted = 0;  ///< round the payload was computed in
    linalg::Vector payload;
  };
  std::vector<std::vector<Delayed>> pending(s.channel.max_delay + 1);

  // The server's inbox: one slot per agent holding the freshest reply
  // (sequence-number dedup: a stale or duplicate arrival never replaces a
  // fresher one; every later arrival counts as superseded).
  struct Slot {
    bool filled = false;
    std::size_t emitted = 0;
    linalg::Vector payload;
  };
  std::vector<Slot> inbox(n);
  std::size_t inbox_count = 0;
  auto deliver = [&](std::size_t agent, std::size_t emitted, linalg::Vector& payload) {
    Slot& slot = inbox[agent];
    if (!slot.filled) {
      slot.filled = true;
      slot.emitted = emitted;
      std::swap(slot.payload, payload);
      ++inbox_count;
      return;
    }
    if (emitted > slot.emitted) {
      slot.emitted = emitted;
      std::swap(slot.payload, payload);
    }
    ++result.superseded_replies;
  };

  // Honest payloads (and the Byzantine agents' would-be-honest gradients)
  // fan out across the runtime; each index writes only its own slots, so
  // the result is thread-count independent.  Built once: the fan-out
  // reads the round's state through references.
  const std::function<void(std::size_t)> emit_gradient = [&](std::size_t i) {
    if (!emits[i]) return;
    const linalg::Vector& at = history.at(staleness_of[i]);
    if (evaluator != nullptr) {
      evaluator->evaluate_agent(i, at, residual_ws[i], payloads[i]);
    } else {
      problem.costs[i]->gradient_into(at, payloads[i]);
    }
  };

  std::size_t rounds_run = 0;
  for (std::size_t t = 0; t < s.rounds; ++t) {
    // The span opens and closes in this serial context; the parallel
    // fan-outs inside the round never touch the span log.
    telemetry::ScopedSpan round_span("chaos.round");
    round_span.attr("t", static_cast<std::uint64_t>(t));
    auto note = [&](const char* name, std::size_t agent) {
      if (!telemetry::enabled()) return;
      telemetry::span_instant(name, {{"agent", telemetry::Value(static_cast<std::uint64_t>(agent))},
                                     {"t", telemetry::Value(static_cast<std::uint64_t>(t))}});
    };
    // --- Emission: every non-crashed agent computes its reply. ---
    bool byzantine_active = false;
    for (std::size_t i = 0; i < n; ++i) {
      const FaultSpec* spec = spec_of[i];
      const bool active = spec != nullptr && in_window(*spec, t);
      emits[i] = !(active && spec->kind == FaultSpec::Kind::kCrash);
      if (!emits[i]) {
        ++result.crashed_absences;
        note("chaos.crashed", i);
        continue;
      }
      // Byzantine agents are never stale: the attack sees the freshest
      // state (worst case for the server).
      staleness_of[i] = 0;
      if (active && spec->kind == FaultSpec::Kind::kStraggler) {
        staleness_of[i] = std::min(spec->staleness, history.size() - 1);
        if (history.size() > 1) ++result.stale_replies;
      }
      if (active && spec->kind == FaultSpec::Kind::kByzantine) byzantine_active = true;
    }
    runtime::parallel_for(0, n, emit_gradient);

    if (byzantine_active) {
      // What the adversary observes: the replies of the agents that are
      // not Byzantine this execution (stale where straggling).
      resize_pooled(observed, 0);
      for (std::size_t i = 0; i < n; ++i) {
        const FaultSpec* spec = spec_of[i];
        if (spec != nullptr && spec->kind == FaultSpec::Kind::kByzantine) continue;
        if (!emits[i]) continue;
        observed.push_back(take_spare());
        observed.back() = payloads[i];
      }
      for (std::size_t i = 0; i < n; ++i) {
        const FaultSpec* spec = spec_of[i];
        if (spec == nullptr || spec->kind != FaultSpec::Kind::kByzantine || !in_window(*spec, t)) {
          continue;
        }
        true_gradient = payloads[i];
        std::vector<linalg::Vector> fallback;
        if (observed.empty()) fallback.push_back(true_gradient);
        attacks::AttackContext ctx;
        ctx.iteration = t;
        ctx.agent_id = i;
        ctx.n = n;
        ctx.f = s.f;
        ctx.estimate = &x;
        ctx.honest_gradient = &true_gradient;
        ctx.honest_gradients = observed.empty() ? &fallback : &observed;
        ctx.rng = &attack_rngs[i];
        payloads[i] = attack_of[i]->craft(ctx);
        REDOPT_REQUIRE(payloads[i].size() == d, "attack crafted a wrong-dimension vector");
        ++result.byzantine_replies;
      }
    }

    // --- Channel and receive: replies delayed into this round land
    // first, then each emitted reply is dropped, duplicated or delayed,
    // draws in agent order from the dedicated channel stream. ---
    std::vector<Delayed>& due = pending[t % pending.size()];
    for (Delayed& reply : due) {
      deliver(reply.agent, reply.emitted, reply.payload);
      spare.push_back(std::move(reply.payload));
    }
    due.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (!emits[i]) continue;
      if (s.channel.drop_probability > 0.0 &&
          channel_rng.uniform() < s.channel.drop_probability) {
        ++result.dropped_replies;
        note("chaos.dropped", i);
        continue;
      }
      if (s.channel.duplicate_probability > 0.0 &&
          channel_rng.uniform() < s.channel.duplicate_probability) {
        ++result.duplicated_replies;
        note("chaos.duplicated", i);
        duplicate = payloads[i];
        deliver(i, t, duplicate);  // the extra copy lands on time
      }
      if (s.channel.max_delay > 0) {
        const auto delay = static_cast<std::size_t>(
            channel_rng.uniform_int(0, static_cast<std::int64_t>(s.channel.max_delay)));
        if (delay > 0) {
          ++result.delayed_replies;
          note("chaos.delayed", i);
          Delayed& reply = pending[(t + delay) % pending.size()].emplace_back();
          reply.agent = i;
          reply.emitted = t;
          reply.payload = take_spare();
          std::swap(reply.payload, payloads[i]);
          continue;
        }
      }
      deliver(i, t, payloads[i]);
    }

    // --- Aggregate and step. ---
    ++rounds_run;
    if (inbox_count > 0) {
      resize_pooled(received, inbox_count);
      std::size_t k = 0;
      for (Slot& slot : inbox) {
        if (!slot.filled) continue;
        std::swap(received[k++], slot.payload);
        slot.filled = false;
      }
      inbox_count = 0;
      std::size_t f_used = 0;
      const filters::FilterPtr& filter = filter_for(received.size(), &f_used);
      if (received.size() != n || f_used != s.f) ++result.filter_rebuilds;
      linalg::Vector direction = filter->apply(received);
      direction *= schedule.step(t);
      x -= direction;
      projection.project_in_place(x);
    }
    history.push_front(x);

    if (!all_finite(x)) {
      result.nonfinite = true;
      result.nonfinite_round = t;
      break;
    }
    result.max_distance = std::max(result.max_distance, linalg::distance(x, built.reference));
  }

  // The fault counters take the scenario's totals once, not one
  // increment per event.
  metric_rounds.inc(rounds_run);
  metric_byzantine.inc(result.byzantine_replies);
  metric_crashed.inc(result.crashed_absences);
  metric_stale.inc(result.stale_replies);
  metric_dropped.inc(result.dropped_replies);
  metric_delayed.inc(result.delayed_replies);
  metric_duplicated.inc(result.duplicated_replies);
  metric_scenarios.inc();
  result.estimate = x;
  result.final_distance =
      result.nonfinite ? std::numeric_limits<double>::infinity()
                       : linalg::distance(x, built.reference);
  return result;
}

double exact_algorithm_distance(const Scenario& s) {
  s.validate();
  REDOPT_REQUIRE(s.problem == "mean" || s.problem == "block_regression",
                 "exact-algorithm check supports mean / block_regression scenarios");
  REDOPT_REQUIRE(s.n <= 12, "exact-algorithm check enumerates subsets; keep n <= 12");

  const MaterializedScenario built = materialize_scenario(s);
  const rng::Rng root(s.seed);

  // Every faulty agent (Byzantine or crashed) submits an adversarially
  // displaced quadratic in place of its true cost.
  std::vector<core::CostPtr> received = built.problem.costs;
  for (const FaultSpec& spec : s.faults) {
    if (spec.kind == FaultSpec::Kind::kStraggler) continue;
    rng::Rng agent_rng = root.fork("byzantine-agent-" + std::to_string(spec.agent));
    linalg::Vector center(s.d);
    for (auto& v : center) v = agent_rng.uniform(-8.0, 8.0);
    received[spec.agent] =
        std::make_shared<core::QuadraticCost>(core::QuadraticCost::squared_distance(center));
  }

  const auto outcome = core::run_exact_algorithm(received, s.f);
  return linalg::distance(outcome.output, built.reference);
}

}  // namespace redopt::chaos

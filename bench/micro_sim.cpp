// Micro-benchmarks: simulator kernel throughput (events/s, coroutine
// switches, fluid-resource reallocation, pending-event reschedules).
#include <benchmark/benchmark.h>

#include <vector>

#define AVF_BENCH_HAS_GBENCH
#include "bench/common.hpp"
#include "sim/fluid_resource.hpp"
#include "sim/mailbox.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "util/rng.hpp"

namespace {

using namespace avf::sim;

void BM_EventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int counter = 0;
    for (int i = 0; i < state.range(0); ++i) {
      sim.schedule(i * 1e-6, [&counter] { ++counter; });
    }
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventDispatch)->Arg(1000)->Arg(100000);

void BM_CoroutinePingPong(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    Mailbox<int> ping(sim), pong(sim);
    int rounds = static_cast<int>(state.range(0));
    auto a = [&]() -> Task<> {
      for (int i = 0; i < rounds; ++i) {
        ping.push(i);
        (void)co_await pong.recv();
      }
    };
    auto b = [&]() -> Task<> {
      for (int i = 0; i < rounds; ++i) {
        int v = co_await ping.recv();
        pong.push(v);
      }
    };
    sim.spawn(a());
    sim.spawn(b());
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_CoroutinePingPong)->Arg(10000);

void BM_FluidReallocation(benchmark::State& state) {
  // N concurrent consumers whose caps sum to the capacity: every arrival
  // and departure takes the O(1) all-at-cap path.
  for (auto _ : state) {
    Simulator sim;
    FluidResource cpu(sim, "cpu", 1e9);
    int n = static_cast<int>(state.range(0));
    std::vector<ShareSlotPtr> slots;
    for (int i = 0; i < n; ++i) {
      slots.push_back(make_share_slot(1.0 / n, 1.0 + i % 3));
    }
    for (int i = 0; i < n; ++i) {
      auto proc = [&, i]() -> Task<> {
        for (int k = 0; k < 10; ++k) {
          co_await cpu.consume(1e7, slots[static_cast<std::size_t>(i)]);
        }
      };
      sim.spawn(proc());
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 10);
}
BENCHMARK(BM_FluidReallocation)->Arg(4)->Arg(32);

void BM_FluidOversubscribed(benchmark::State& state) {
  // N consumers on one CPU, each capped well above its fair share (like
  // serve_adaptive's client sandboxes on their shared host): the resource is
  // oversubscribed, so every arrival and departure runs the dense
  // water-filling pass and reschedules every flow whose rate moved.
  int n = static_cast<int>(state.range(0));
  std::uint64_t passes = 0;
  for (auto _ : state) {
    Simulator sim;
    FluidResource cpu(sim, "cpu", 1e9);
    std::vector<ShareSlotPtr> slots;
    for (int i = 0; i < n; ++i) {
      slots.push_back(make_share_slot(0.5, 1.0 + i % 3));
    }
    for (int i = 0; i < n; ++i) {
      auto proc = [&, i]() -> Task<> {
        co_await sim.delay(1e-4 * i);  // staggered arrivals
        for (int k = 0; k < 4; ++k) {
          co_await cpu.consume(1e6 * (1 + (i + k) % 7),
                               slots[static_cast<std::size_t>(i)]);
        }
      };
      sim.spawn(proc());
    }
    sim.run();
    passes = cpu.full_reallocs();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 4);
  state.counters["full_reallocs"] = static_cast<double>(passes);
}
BENCHMARK(BM_FluidOversubscribed)->Arg(32)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_Reschedule(benchmark::State& state) {
  // Move one of N pending events to a random new time per iteration — the
  // completion-event traffic of a fluid resource whose rates keep changing.
  // Most moves re-key a far-tier record; the rest cross the horizon.
  Simulator sim;
  std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<EventHandle> handles;
  avf::util::SplitMix64 rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    handles.push_back(sim.schedule(1.0 + rng.next_double(), [] {}));
  }
  sim.schedule(0.0, [] {});
  sim.step();  // picks the first horizon: the nearest quarter goes near
  std::size_t i = 0;
  for (auto _ : state) {
    bool moved = sim.reschedule(handles[i], 1.0 + rng.next_double());
    benchmark::DoNotOptimize(moved);
    if (++i == n) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Reschedule)->Arg(256)->Arg(4096);

}  // namespace

int main(int argc, char** argv) {
  return avf::bench::run_benchmarks_with_json(argc, argv, "micro_sim");
}

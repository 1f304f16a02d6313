// serve_adaptive: hundreds of concurrent adaptive Active Visualization
// clients on one shared link — the paper's run-time scenario at
// multi-session scale.  Each client owns a monitor, scheduler, steering
// and controller stack with the library's default options (no
// DecisionCache, so predictions go through PerfDatabase's
// PredictionCache), downloads Zipf-popular images from a catalog of
// distinct pictures with its own seeded fovea, and adapts on its own
// estimates while the link bandwidth drops and later recovers.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "adapt/controller.hpp"
#include "bench.hpp"
#include "util/rng.hpp"

namespace avf::perfbench {

namespace {

struct ServePlan {
  int clients = 256;
  int downloads_per_client = 4;
  int catalog = 32;
  int image_size = 256;
  int levels = 4;
  /// Paper-class machines the shared client host stands for.
  double client_host_machines = 32.0;
  /// Zipf exponent of image popularity.
  double zipf_s = 1.0;
  /// Client arrivals are spread uniformly over [0, arrival_window) s, and
  /// each client thinks for U(0, max_think) s before every download, so
  /// downloads do not move through the link in lockstep waves.
  double arrival_window = 10.0;
  double max_think = 4.0;
  /// The link drops to link_drop_factor of nominal over [drop_at, recover_at).
  double drop_at = 20.0;
  double recover_at = 50.0;
  double link_drop_factor = 0.25;
};

/// Clients in the reduced copy compared with the reply caches on and off.
constexpr int kReducedClients = 24;
constexpr std::size_t kProfileWorkers = 2;
/// Times each recorded adaptation is replayed in traced rounds: a round
/// records only about a dozen adaptations, and the select percentiles
/// should rest on hundreds of samples.
constexpr int kSelectReplays = 32;

const std::vector<std::vector<double>>& db_grid() {
  static const std::vector<std::vector<double>> g{
      {0.1, 0.2, 0.4, 0.6, 0.9, 1.0},
      {25e3, 50e3, 100e3, 250e3, 500e3, 1000e3}};
  return g;
}

adapt::PreferenceList serve_preferences() {
  tunable::UserPreference full =
      tunable::minimize("transmit_time", "full-resolution");
  full.constraints.push_back({.metric = "resolution", .min = 4.0});
  full.constraints.push_back({.metric = "transmit_time", .max = 4.0});
  return {full, tunable::minimize("transmit_time", "best-effort")};
}

/// What one client will do, drawn from the workload seed.
struct ClientPlan {
  double start_at = 0.0;
  std::vector<double> think;  ///< pause before each download, s
  int fovea_cx = 0;
  int fovea_cy = 0;
  std::vector<std::uint32_t> images;
};

std::vector<ClientPlan> plan_clients(const ServePlan& plan,
                                     std::uint64_t seed) {
  std::vector<double> cdf(static_cast<std::size_t>(plan.catalog));
  double total = 0.0;
  for (int k = 0; k < plan.catalog; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), plan.zipf_s);
    cdf[static_cast<std::size_t>(k)] = total;
  }
  // Which catalog image holds each popularity rank is itself seeded.
  std::vector<std::uint32_t> by_rank(static_cast<std::size_t>(plan.catalog));
  util::SplitMix64 shuffle(seed);
  for (std::size_t k = 0; k < by_rank.size(); ++k) {
    by_rank[k] = static_cast<std::uint32_t>(k);
    std::swap(by_rank[k], by_rank[shuffle.next_below(k + 1)]);
  }
  std::vector<ClientPlan> out(static_cast<std::size_t>(plan.clients));
  for (std::size_t i = 0; i < out.size(); ++i) {
    util::SplitMix64 rng(seed * 0x9E3779B97F4A7C15ULL + i);
    ClientPlan& c = out[i];
    c.start_at = rng.uniform(0.0, plan.arrival_window);
    c.fovea_cx = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(plan.image_size)));
    c.fovea_cy = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(plan.image_size)));
    for (int d = 0; d < plan.downloads_per_client; ++d) {
      const double u = rng.next_double() * total;
      const auto rank = std::min<std::ptrdiff_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
          plan.catalog - 1);
      c.images.push_back(by_rank[static_cast<std::size_t>(rank)]);
      c.think.push_back(rng.uniform(0.0, plan.max_think));
    }
  }
  return out;
}

viz::WorldSetup world_setup(const ServePlan& plan) {
  viz::WorldSetup setup;
  setup.client_count = plan.clients;
  setup.image_size = plan.image_size;
  setup.levels = plan.levels;
  setup.image_count = plan.catalog;
  // All client sandboxes share the world's one client host; give it the
  // speed of a few dozen paper-class (450 Mops) machines so the shared
  // link, not one CPU, is what the clients contend for.
  setup.client_speed = 450e6 * plan.client_host_machines;
  return setup;
}

struct Stack {
  std::unique_ptr<adapt::ResourceScheduler> scheduler;
  std::unique_ptr<adapt::MonitoringAgent> monitor;
  std::unique_ptr<adapt::SteeringAgent> steering;
  std::unique_ptr<adapt::AdaptationController> controller;
  std::unique_ptr<viz::VizClient> client;
  tunable::ConfigPoint initial_config;
};

sim::Task<> client_session(sim::Simulator* simulator, viz::VizClient* client,
                           adapt::AdaptationController* controller,
                           const ClientPlan* plan, std::size_t* failed) {
  if (plan->start_at > 0.0) co_await simulator->delay(plan->start_at);
  for (std::size_t d = 0; d < plan->images.size(); ++d) {
    co_await simulator->delay(plan->think[d]);
    bool ok = true;
    try {
      (void)co_await client->fetch_image(plan->images[d]);
    } catch (const std::exception&) {
      ok = false;  // includes a kError reply from the server
    }
    if (!ok) ++*failed;
  }
  co_await client->shutdown_server();
  controller->stop();
}

/// One serving run, from world construction to the drained simulation.
struct Serving {
  viz::MultiSessionResult result;
  std::size_t failed = 0;
  double run_s = 0.0;  ///< Simulator::run
  std::uint64_t server_wire_bytes = 0;
  std::map<std::string, double> layers;
};

Serving serve(const ServePlan& plan, const viz::WorldSetup& setup,
              const perfdb::PerfDatabase& db,
              const std::vector<ClientPlan>& clients, Tracer* tracer,
              const std::function<void()>& before_run = {}) {
  Serving out;
  std::unique_ptr<viz::VizWorld> world;
  {
    Tracer::Span span(tracer, "viz.world_build");
    world = std::make_unique<viz::VizWorld>(setup);
  }
  sim::Simulator& simulator = world->simulator();
  const std::vector<double> initial{setup.client_cpu_share,
                                    setup.link_bandwidth_bps};
  const adapt::PreferenceList preferences = serve_preferences();
  std::vector<Stack> stacks(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    Tracer::Span span(tracer, "adapt.stack_build", i + 1);
    Stack& s = stacks[i];
    s.scheduler = std::make_unique<adapt::ResourceScheduler>(db, preferences);
    s.monitor = std::make_unique<adapt::MonitoringAgent>(
        simulator, viz::viz_app_spec().resource_axes());
    auto decision = s.scheduler->select(initial);
    if (!decision) throw std::runtime_error("serve: empty database");
    s.initial_config = decision->config;
    s.steering = std::make_unique<adapt::SteeringAgent>(viz::viz_app_spec(),
                                                        decision->config);
    s.controller = std::make_unique<adapt::AdaptationController>(
        simulator, *s.scheduler, *s.monitor, *s.steering);
    s.controller->configure(initial);
    s.controller->start();
    viz::VizClient::Options options;
    options.session_id = static_cast<std::uint32_t>(i) + 1;
    options.fovea_cx = clients[i].fovea_cx;
    options.fovea_cy = clients[i].fovea_cy;
    s.client = std::make_unique<viz::VizClient>(
        world->client_box(i), world->client_endpoint(i), s.steering.get(),
        s.monitor.get(), options);
  }
  world->spawn_server_loops();
  for (std::size_t i = 0; i < clients.size(); ++i) {
    simulator.spawn(client_session(&simulator, stacks[i].client.get(),
                                   stacks[i].controller.get(), &clients[i],
                                   &out.failed));
  }
  sim::Link* link = &world->link();
  const double nominal = setup.link_bandwidth_bps;
  simulator.schedule_at(plan.drop_at, [link, nominal, &plan] {
    link->set_bandwidth(nominal * plan.link_drop_factor);
  });
  simulator.schedule_at(plan.recover_at,
                        [link, nominal] { link->set_bandwidth(nominal); });

  if (before_run) before_run();
  const Clock::time_point run_start = Clock::now();
  {
    Tracer::Span span(tracer, "sim.run");
    simulator.run();
  }
  out.run_s = seconds_since(run_start);

  out.result.total_time = simulator.now();
  auto& m = out.layers;
  for (const Stack& s : stacks) {
    viz::SessionResult session;
    session.images = s.client->history();
    session.adaptations = s.controller->adaptations();
    session.initial_config = s.initial_config;
    session.total_time = simulator.now();
    for (const auto& image : session.images) {
      m["viz.client_rounds"] += image.rounds;
    }
    m["adapt.ticks_skipped"] +=
        static_cast<double>(s.controller->ticks_skipped());
    m["adapt.triggers"] += static_cast<double>(s.monitor->triggers());
    m["adapt.adaptations"] += static_cast<double>(session.adaptations.size());
    m["adapt.steering_applied"] += static_cast<double>(s.steering->applied());
    out.result.clients.push_back(std::move(session));
  }
  add_sim_counters(m, simulator);
  add_link_counters(m, world->link());
  add_cpu_counters(m, world->client_box().host().cpu());
  add_cpu_counters(m, world->server_box().host().cpu());
  m["viz.requests"] = static_cast<double>(world->server().requests_served());
  m["viz.raw_bytes_encoded"] =
      static_cast<double>(world->server().raw_bytes_encoded());
  out.server_wire_bytes = world->server().wire_bytes_sent();
  m["viz.wire_bytes"] = static_cast<double>(out.server_wire_bytes);
  return out;
}

}  // namespace

RoundResult run_serve_adaptive(const RoundOptions& options) {
  Tracer* tracer = options.tracer;
  const ServePlan plan;
  RoundResult r;
  // The catalog's content is fixed (WorldSetup's image seed), so every seed
  // adapts against the same database; the seed drives who asks for what,
  // where and when.
  const viz::WorldSetup setup = world_setup(plan);
  const std::vector<ClientPlan> clients = plan_clients(plan, options.seed);

  // Set-up: profile the database on catalog image 0, decompose the catalog
  // pyramids, wire the world and build every client's stack (inside
  // serve(), up to before_run).
  const Clock::time_point setup_start = Clock::now();
  std::optional<Tracer::Span> setup_span(std::in_place, tracer, "bench.setup");
  viz::WorldSetup profile_base = setup;
  profile_base.client_count = 1;
  profile_base.image_count = 1;
  VizProfile profile =
      profile_viz(profile_base, db_grid(), 0, kProfileWorkers, tracer);
  perfdb::PerfDatabase& db = profile.db;
  for (int i = 0; i < plan.catalog; ++i) {
    Tracer::Span span(tracer, "wavelet.pyramid_build");
    viz::cached_pyramid_entry(plan.image_size,
                              setup.image_seed + static_cast<std::uint64_t>(i),
                              plan.levels);
  }
  std::optional<Tracer::Span> run_span;
  VizCacheSnapshot caches_before;
  Serving serving = serve(plan, setup, db, clients, tracer, [&] {
    r.setup_s = seconds_since(setup_start);
    setup_span.reset();
    caches_before = VizCacheSnapshot::take();
    db.reset_prediction_stats();
    run_span.emplace(tracer, "bench.run");
  });
  run_span.reset();
  r.run_s = serving.run_s;
  r.peak_rss_mb = peak_rss_mb();
  r.layers = serving.layers;
  add_viz_cache_counters(r.layers, caches_before);
  const perfdb::PerfDatabase::PredictionStats predictions =
      db.prediction_stats();
  r.layers["perfdb.predict_cache_hits"] =
      static_cast<double>(predictions.cache_hits);
  r.layers["perfdb.predict_cache_misses"] =
      static_cast<double>(predictions.cache_misses);
  r.layers["perfdb.index_rebuilds"] =
      static_cast<double>(predictions.index_rebuilds);

  if (tracer != nullptr) {
    // Replay every recorded adaptation's estimates and incumbent through a
    // fresh scheduler with the clients' options, kSelectReplays times.
    Tracer::Span replay(tracer, "bench.replay");
    const adapt::ResourceScheduler scheduler(db, serve_preferences());
    for (int k = 0; k < kSelectReplays; ++k) {
      for (const viz::SessionResult& session : serving.result.clients) {
        for (const auto& event : session.adaptations) {
          Tracer::Span span(tracer, "adapt.select");
          (void)scheduler.select_with_incumbent(event.estimates, event.from);
        }
      }
    }
  }
  if (tracer != nullptr) {
    add_span_metrics(r.layers, *tracer, kProfileWorkers);
  }

  std::size_t short_sessions = 0, too_fast = 0;
  std::uint64_t client_wire_bytes = 0;
  const double capacity = setup.link_bandwidth_bps;
  for (const viz::SessionResult& session : serving.result.clients) {
    if (session.images.size() !=
        static_cast<std::size_t>(plan.downloads_per_client)) {
      ++short_sessions;
    }
    for (const auto& image : session.images) {
      r.sim_responses.push_back(image.avg_response);
      client_wire_bytes += image.wire_bytes;
      if (image.transmit_time <
          static_cast<double>(image.wire_bytes) / capacity) {
        ++too_fast;
      }
    }
  }
  r.items = r.sim_responses.size();
  r.attempted = static_cast<std::size_t>(plan.clients) *
                static_cast<std::size_t>(plan.downloads_per_client);
  r.failed = serving.failed;
  r.check(serving.failed == 0 && short_sessions == 0,
          "every client completes all its downloads with no kError");
  r.check(client_wire_bytes == serving.server_wire_bytes,
          "client wire bytes sum to the server's wire_bytes_sent");
  r.check(too_fast == 0,
          "every transmit_time is at least wire_bytes / link capacity");

  if (options.full_checks) {
    // The same generator at reduced scale, reply caches on and off: the
    // caches may only save host cycles, never change a result.
    ServePlan reduced = plan;
    reduced.clients = kReducedClients;
    const viz::WorldSetup reduced_setup = world_setup(reduced);
    const std::vector<ClientPlan> reduced_clients =
        plan_clients(reduced, options.seed);
    viz::WorldSetup uncached = reduced_setup;
    uncached.server_options.size_cache = nullptr;
    uncached.server_options.region_cache = nullptr;
    uncached.server_options.chunk_cache = nullptr;
    const Serving on = serve(reduced, reduced_setup, db, reduced_clients,
                             nullptr);
    const Serving off = serve(reduced, uncached, db, reduced_clients, nullptr);
    r.check(on.failed == 0 && off.failed == 0 &&
                viz::result_fingerprint(on.result) ==
                    viz::result_fingerprint(off.result) &&
                viz::adaptation_fingerprint(on.result) ==
                    viz::adaptation_fingerprint(off.result),
            "reduced copy: equal result and adaptation fingerprints with "
            "the reply caches on and off");
  }
  return r;
}

}  // namespace avf::perfbench

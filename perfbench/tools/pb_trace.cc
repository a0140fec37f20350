// The benchmark's traced run: links the repository's libraries and drives a
// workload in-process, timing the calls into each layer's public functions
// and reading the counters the program already exports. Prints one JSON
// object: {"layers": {...}, "e2e": {...}}, where `e2e` holds the traced
// run's own end-to-end figures (and, where the loop can run both ways, the
// same figure with the timers off, so the tracing overhead is stated).
//
//   pb_trace build  <dir>
//   pb_trace serve  <dir> <requests> <seconds>
//   pb_trace routed <dir> <requests> <seconds>
//   pb_trace ingest <dir> <pages> <entities> <rate> <count>
//
// <dir> holds the generated inputs (dump.tsv, corpus.tsv, lexicon.tsv) and,
// for serve/routed, snapshot.bin. <requests> is a file of request targets as
// pb_load reads them; <pages> as pb_load's --pages.
//
// serve, routed and ingest pin their threads as run.py pins the processes
// of the untraced runs (CpuPlan), so the in-process round trips cross the
// same CPUs the wire round trips do.
#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/builder.h"
#include "core/incremental.h"
#include "ingest/daemon.h"
#include "kb/dump.h"
#include "obs/metrics.h"
#include "reason/engine.h"
#include "router/json_merge.h"
#include "router/router.h"
#include "router/shard_map.h"
#include "server/http.h"
#include "server/ingest_endpoints.h"
#include "server/result_cache.h"
#include "server/server.h"
#include "server/service.h"
#include "synth/corpus_gen.h"
#include "synth/encyclopedia_gen.h"
#include "synth/world.h"
#include "synth/world_data.h"
#include "taxonomy/api_service.h"
#include "taxonomy/serialize.h"
#include "taxonomy/snapshot.h"
#include "text/lexicon.h"
#include "text/segmenter.h"
#include "util/net.h"
#include "util/tsv.h"

namespace {

using namespace cnpb;
using pb::Clock;
using pb::Seconds;

// Name -> value, printed in insertion-independent (sorted) order.
using Fields = std::map<std::string, double>;

// run.py's cpu_plan for threads: server k of `servers` on the k-th allowed
// CPU, the client on the CPUs after the servers', and no pinning when there
// are too few CPUs. A new thread inherits its creator's mask, so the caller
// pins itself before it starts a server's threads and to the client last.
class CpuPlan {
 public:
  explicit CpuPlan(size_t servers) : servers_(servers) {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }

  // Pins the calling thread to the CPUs of servers first..last.
  void Servers(size_t first, size_t last) const { Pin(first, last + 1); }
  void Client() const { Pin(servers_, cpus_.size()); }

 private:
  void Pin(size_t begin, size_t end) const {
    if (cpus_.size() <= servers_) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (size_t i = begin; i < end; ++i) CPU_SET(cpus_[i], &set);
    sched_setaffinity(0, sizeof(set), &set);
  }

  size_t servers_;
  std::vector<int> cpus_;
};

double Median(std::vector<double> v) { return pb::Percentile(std::move(v), 0.5); }

double Ns(Clock::duration d) {
  return std::chrono::duration<double, std::nano>(d).count();
}

// Times `fn` over `reps` calls and returns ns per call; sub-microsecond
// calls are timed in groups so the clock read does not dominate.
template <typename Fn>
double TimeNs(int reps, Fn&& fn) {
  const auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) fn();
  return Ns(Clock::now() - t0) / reps;
}

void Print(const Fields& layers, const Fields& e2e) {
  const auto dump = [](const Fields& f) {
    std::string s = "{";
    for (const auto& [k, v] : f) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", v);
      s += (s.size() > 1 ? ",\"" : "\"") + k + "\":" + buf;
    }
    return s + "}";
  };
  std::printf("{\"layers\":%s,\"e2e\":%s}\n", dump(layers).c_str(),
              dump(e2e).c_str());
}

[[noreturn]] void Die(const std::string& what, const util::Status& status) {
  std::fprintf(stderr, "pb_trace: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

double Gauge(const char* name) {
  return obs::MetricsRegistry::Global().gauge(name)->value();
}
double HistSum(const char* name) {
  return obs::MetricsRegistry::Global().histogram(name)->Snapshot().sum;
}
double HistMean(const char* name) {
  return obs::MetricsRegistry::Global().histogram(name)->Snapshot().Mean();
}

int RunBuild(const std::string& dir) {
  const auto t0 = Clock::now();
  auto dump = kb::EncyclopediaDump::Load(dir + "/dump.tsv");
  if (!dump.ok()) Die("load dump", dump.status());
  auto lexicon = text::Lexicon::Load(dir + "/lexicon.tsv");
  if (!lexicon.ok()) Die("load lexicon", lexicon.status());
  auto corpus = util::ReadTsvFile(dir + "/corpus.tsv");
  if (!corpus.ok()) Die("load corpus", corpus.status());
  const double load_s = Seconds(Clock::now() - t0);

  core::CnProbaseBuilder::Config config;
  for (const char* word : synth::ThematicWords()) {
    config.verification.syntax.thematic_lexicon.emplace_back(word);
  }
  const auto t1 = Clock::now();
  taxonomy::Taxonomy taxonomy =
      core::CnProbaseBuilder::Build(*dump, *lexicon, *corpus, config, nullptr);
  if (auto s = taxonomy::SaveTaxonomyDurable(taxonomy,
                                             dir + "/trace_taxonomy.tsv");
      !s.ok()) {
    Die("save taxonomy", s);
  }
  const auto t2 = Clock::now();
  if (auto s = taxonomy::WriteSnapshot(
          taxonomy, core::CnProbaseBuilder::BuildMentionIndex(*dump, taxonomy),
          dir + "/trace_snapshot.bin");
      !s.ok()) {
    Die("write snapshot", s);
  }
  const auto t3 = Clock::now();

  Fields layers{
      {"kb.load_s", load_s},
      {"nn.copynet_train_s", Gauge("build.stage.neural_train_seconds")},
      {"generation.bracket_s", Gauge("build.stage.bracket_seconds")},
      {"generation.abstract_s", HistSum("build.shard.abstract_seconds")},
      {"generation.infobox_s", HistSum("build.shard.infobox_seconds")},
      {"generation.tag_s", HistSum("build.shard.tag_seconds")},
      {"verification.incompatible_s",
       Gauge("verify.stage.incompatible_seconds")},
      {"verification.ner_s", Gauge("verify.stage.ner_seconds")},
      {"verification.syntax_s", Gauge("verify.stage.syntax_seconds")},
      {"taxonomy.snapshot_write_s", Seconds(t3 - t2)},
  };
  Print(layers, {{"setup_s", load_s}, {"latency_ms", Seconds(t3 - t1) * 1e3}});
  return 0;
}

// A parsed request target, kept with its raw bytes.
struct Req {
  std::string target;
  std::string raw;
  server::HttpRequest parsed;
};

std::vector<Req> ParseRequests(const std::string& path, double* parse_ns) {
  std::vector<Req> reqs;
  std::vector<double> per_call;
  for (const std::string& target : pb::ReadLines(path)) {
    Req r;
    r.target = target;
    r.raw = "GET " + target + " HTTP/1.1\r\nHost: pb\r\n\r\n";
    server::RequestParser parser;
    const double ns = TimeNs(1, [&] { parser.Feed(r.raw); });
    if (parser.state() != server::RequestParser::State::kComplete) {
      std::fprintf(stderr, "pb_trace: unparsable request %s\n", target.c_str());
      std::exit(1);
    }
    per_call.push_back(ns);
    r.parsed = parser.request();
    reqs.push_back(std::move(r));
  }
  *parse_ns = Median(per_call);
  return reqs;
}

std::shared_ptr<const taxonomy::Snapshot> LoadSnapshot(const std::string& dir,
                                                       double* seconds) {
  const auto t0 = Clock::now();
  auto snap = taxonomy::Snapshot::Load(dir + "/snapshot.bin");
  if (!snap.ok()) Die("load snapshot", snap.status());
  *seconds = Seconds(Clock::now() - t0);
  return *std::move(snap);
}

// Times the taxonomy layer's query calls on the arguments of `reqs`.
void TimeTaxonomy(const taxonomy::ApiService& api,
                  const taxonomy::ServingView& view,
                  const std::vector<Req>& reqs, Fields* layers) {
  std::vector<double> men2ent, concept_ns, entity_ns, find;
  for (const Req& r : reqs) {
    const auto& p = r.parsed;
    if (p.path == "/v1/men2ent") {
      const std::string m(p.Param("mention"));
      men2ent.push_back(TimeNs(8, [&] { (void)api.TryMen2EntResolved(m); }));
    } else if (p.path == "/v1/getConcept") {
      const std::string e(p.Param("entity"));
      concept_ns.push_back(
          TimeNs(8, [&] { (void)api.TryGetConceptResolved(e); }));
      find.push_back(TimeNs(32, [&] { (void)view.Find(e); }));
    } else if (p.path == "/v1/getEntity") {
      const std::string c(p.Param("concept"));
      const size_t limit = std::strtoul(std::string(p.Param("limit", "100")).c_str(),
                                        nullptr, 10);
      entity_ns.push_back(
          TimeNs(8, [&] { (void)api.TryGetEntityResolved(c, limit); }));
      find.push_back(TimeNs(32, [&] { (void)view.Find(c); }));
    }
  }
  (*layers)["taxonomy.men2ent_ns"] = Median(men2ent);
  (*layers)["taxonomy.get_concept_ns"] = Median(concept_ns);
  (*layers)["taxonomy.get_entity_ns"] = Median(entity_ns);
  (*layers)["taxonomy.find_ns"] = Median(find);
}

// In-process HttpServer whose handler is optionally timed; `last_handle_ns`
// carries the handler time of the request just answered to the client.
struct TimedServer {
  std::atomic<bool> traced{false};
  std::atomic<int64_t> last_handle_ns{0};
  std::unique_ptr<server::HttpServer> httpd;

  TimedServer(server::ApiEndpoints* endpoints, int threads) {
    server::HttpServer::Config config;
    config.num_threads = threads;
    httpd = std::make_unique<server::HttpServer>(
        config, [this, endpoints](const server::HttpRequest& request) {
          if (!traced.load(std::memory_order_relaxed)) {
            return endpoints->Handle(request);
          }
          const auto t0 = Clock::now();
          server::HttpResponse response = endpoints->Handle(request);
          last_handle_ns.store(static_cast<int64_t>(Ns(Clock::now() - t0)),
                               std::memory_order_relaxed);
          return response;
        });
    if (auto s = httpd->Start(); !s.ok()) Die("start server", s);
  }
};

int RunServe(const std::string& dir, const std::string& requests,
             double seconds) {
  Fields layers;
  double load_s = 0.0;
  const auto view = LoadSnapshot(dir, &load_s);
  layers["taxonomy.snapshot_load_s"] = load_s;
  double parse_ns = 0.0;
  const std::vector<Req> reqs = ParseRequests(requests, &parse_ns);
  layers["server.parse_ns"] = parse_ns;

  taxonomy::ApiService api(view);
  server::ResultCache::Config cache_config;
  cache_config.max_bytes = 8u << 20;
  server::ApiEndpoints endpoints(&api, cache_config);
  const CpuPlan plan(1);
  plan.Servers(0, 0);
  TimedServer ts(&endpoints, 1);
  plan.Client();

  // Alternate untraced and traced windows over one connection; the traced
  // windows split each round trip into handler time and the rest.
  pb::Conn conn(ts.httpd->port());
  pb::Response resp;
  std::vector<double> handle_ns, loop_ns;
  double untraced_n = 0, untraced_s = 0, traced_n = 0, traced_s = 0;
  size_t i = 0;
  const int kWindows = 8;
  for (int w = 0; w < kWindows; ++w) {
    const bool traced = w % 2 == 1;
    ts.traced = traced;
    const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(
                                            seconds / kWindows));
    const auto t0 = Clock::now();
    double n = 0;
    while (Clock::now() < end) {
      const auto s0 = Clock::now();
      if (!conn.Request("GET", reqs[i].target, "", &resp) ||
          resp.status != 200) {
        std::fprintf(stderr, "pb_trace: request %s failed\n",
                     reqs[i].target.c_str());
        return 1;
      }
      if (traced) {
        const double rtt = Ns(Clock::now() - s0);
        const double h = static_cast<double>(ts.last_handle_ns.load());
        handle_ns.push_back(h);
        loop_ns.push_back(rtt - h);
      }
      n += 1;
      if (++i == reqs.size()) i = 0;
    }
    (traced ? traced_n : untraced_n) += n;
    (traced ? traced_s : untraced_s) += Seconds(Clock::now() - t0);
  }
  layers["server.handle_ns"] = Median(handle_ns);
  layers["server.loop_ns"] = Median(loop_ns);
  const server::ResultCache::Stats cs = endpoints.cache()->stats();
  layers["server.cache_hit_ratio"] = cs.hit_ratio();

  // The cache layer alone: a private ResultCache holding every distinct
  // answer, probed in the workload's (skewed) key order.
  server::ResultCache cache(cache_config);
  std::vector<std::string> keys;
  for (const Req& r : reqs) {
    const auto& p = r.parsed;
    keys.push_back(server::ResultCache::Key(
        p.path, p.params.empty() ? "" : p.params.front().second));
    server::HttpResponse answer = endpoints.Handle(p);
    cache.Insert(keys.back(), api.version(), answer.status, answer.body);
  }
  std::vector<double> lookup_ns;
  server::ResultCache::CachedResponse hit;
  for (const std::string& key : keys) {
    lookup_ns.push_back(
        TimeNs(8, [&] { (void)cache.Lookup(key, api.version(), &hit); }));
  }
  layers["server.cache_lookup_ns"] = Median(lookup_ns);
  TimeTaxonomy(api, *view, reqs, &layers);

  ts.httpd->Stop();
  ts.httpd->Wait();
  Print(layers, {{"setup_s", load_s},
                 {"rtt_rps_untraced", untraced_n / untraced_s},
                 {"rtt_rps_traced", traced_n / traced_s}});
  return 0;
}

// The routed workload in-process: two uncached backends and a Router over
// them; every request goes once direct and once routed.
int RunRouted(const std::string& dir, const std::string& requests,
              double seconds) {
  Fields layers;
  double load_s = 0.0;
  const auto view = LoadSnapshot(dir, &load_s);
  layers["taxonomy.snapshot_load_s"] = load_s;
  double parse_ns = 0.0;
  const std::vector<Req> reqs = ParseRequests(requests, &parse_ns);

  taxonomy::ApiService api_a(view), api_b(view);
  server::ApiEndpoints ep_a(&api_a), ep_b(&api_b);
  const CpuPlan plan(3);
  plan.Servers(0, 0);
  TimedServer a(&ep_a, 1);
  plan.Servers(1, 1);
  TimedServer b(&ep_b, 1);
  std::vector<std::vector<router::ShardMap::Endpoint>> topology{
      {{"127.0.0.1", a.httpd->port()}, {"127.0.0.1", b.httpd->port()}},
      {{"127.0.0.1", b.httpd->port()}, {"127.0.0.1", a.httpd->port()}}};
  router::ShardMap shard_map(std::move(topology), {});
  router::Router::Options options;
  options.server.num_threads = 1;
  router::Router router(&shard_map, options);
  plan.Servers(2, 2);
  if (auto s = router.Start(); !s.ok()) Die("start router", s);
  plan.Client();

  pb::Conn direct(a.httpd->port()), routed(router.port());
  pb::Response resp;
  std::vector<double> direct_us, routed_us, merge_ns;
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  for (size_t i = 0; Clock::now() < end; i = (i + 1) % reqs.size()) {
    const std::string& target = reqs[i].target;
    auto t0 = Clock::now();
    const bool ok_d = direct.Request("GET", target, "", &resp);
    direct_us.push_back(Ns(Clock::now() - t0) / 1e3);
    const std::string body = resp.body;
    t0 = Clock::now();
    const bool ok_r = routed.Request("GET", target, "", &resp);
    routed_us.push_back(Ns(Clock::now() - t0) / 1e3);
    if (!ok_d || !ok_r || resp.status != 200) {
      std::fprintf(stderr, "pb_trace: request %s failed\n", target.c_str());
      return 1;
    }
    if (reqs[i].parsed.path.ends_with("_batch")) {
      // The merge helpers the router applies to each backend sub-response.
      merge_ns.push_back(TimeNs(4, [&] {
        uint64_t version = 0;
        std::string_view results;
        (void)router::FindJsonUInt(body, "version", &version);
        (void)router::FindJsonArray(body, "results", &results);
        std::string merged;
        for (std::string_view item : router::SplitTopLevelJson(results)) {
          merged += item;
          merged += ',';
        }
      }));
    }
  }
  layers["router.overhead_us"] = Median(routed_us) - Median(direct_us);
  layers["router.merge_ns"] = Median(merge_ns);
  const router::Router::Stats rs = router.stats();
  layers["router.hedge_ratio"] =
      rs.forwarded == 0 ? 0.0 : static_cast<double>(rs.hedges) / rs.forwarded;

  std::vector<double> isa_ns, lca_ns;
  for (const Req& r : reqs) {
    const auto& p = r.parsed;
    const size_t depth =
        std::strtoul(std::string(p.Param("max_depth", "4")).c_str(), nullptr, 10);
    if (p.path == "/v1/isa") {
      const auto e = view->Find(p.Param("entity"));
      const auto c = view->Find(p.Param("concept"));
      isa_ns.push_back(TimeNs(4, [&] { (void)reason::IsaClosure(*view, e, c, depth); }));
    } else if (p.path == "/v1/lca") {
      const auto x = view->Find(p.Param("a"));
      const auto y = view->Find(p.Param("b"));
      lca_ns.push_back(TimeNs(
          4, [&] { (void)reason::LowestCommonAncestor(*view, x, y, depth); }));
    }
  }
  layers["reason.isa_ns"] = Median(isa_ns);
  layers["reason.lca_ns"] = Median(lca_ns);
  TimeTaxonomy(api_a, *view, reqs, &layers);

  router.Stop();
  router.Wait();
  Print(layers, {{"setup_s", load_s},
                 {"direct_p50_us", Median(direct_us)},
                 {"routed_p50_us", Median(routed_us)}});
  return 0;
}

// The ingest path in-process: the daemon over the same base build
// cnprobase_ingestd makes, fed the workload's pages at a fixed rate.
int RunIngest(const std::string& dir, const std::string& pages_path,
              size_t entities, double rate, size_t count) {
  const CpuPlan plan(2);
  plan.Servers(0, 1);
  const auto t0 = Clock::now();
  synth::WorldModel::Config wc;
  wc.num_entities = entities;
  const synth::WorldModel world = synth::WorldModel::Generate(wc);
  const auto output = synth::EncyclopediaGenerator::Generate(world, {});
  text::Segmenter segmenter(&world.lexicon());
  const auto corpus =
      synth::CorpusGenerator::Generate(world, output.dump, segmenter, {});
  std::vector<std::vector<std::string>> corpus_words;
  for (const auto& sentence : corpus.sentences) {
    std::vector<std::string> words;
    for (const auto& token : sentence) words.push_back(token.word);
    corpus_words.push_back(std::move(words));
  }
  core::CnProbaseBuilder::Config builder_config;
  builder_config.neural.epochs = 1;
  builder_config.neural.max_train_samples = 1000;
  builder_config.enable_verification = false;
  core::IncrementalUpdater updater(output.dump, &world.lexicon(), corpus_words,
                                   builder_config);
  taxonomy::ApiService api(updater.snapshot());
  ingest::IngestDaemon::Options options;
  options.wal_dir = dir + "/trace_wal";
  ingest::IngestDaemon daemon(&updater, &api, options);
  if (auto s = daemon.Start(); !s.ok()) Die("daemon start", s);
  const double setup_s = Seconds(Clock::now() - t0);
  plan.Client();

  struct Page {
    kb::EncyclopediaPage page;
    std::string tag;
    Clock::time_point due, acked;
  };
  std::vector<Page> pages;
  for (const std::string& line : pb::ReadLines(pages_path)) {
    const size_t t1 = line.find('\t'), t2 = line.find('\t', t1 + 1);
    Page p;
    p.page.name = line.substr(0, t1);
    p.page.mention = line.substr(t1 + 1, t2 - t1 - 1);
    p.tag = line.substr(t2 + 1);
    p.page.tags.push_back(p.tag);
    pages.push_back(std::move(p));
    if (pages.size() == count) break;
  }
  // Writer at a fixed rate; the reader polls each acked page until its tag
  // shows among the served hypernyms.
  std::vector<double> ack_ms, lag_ms, visible_ms;
  std::atomic<size_t> acked{0};
  std::thread watcher([&] {
    for (size_t k = 0; k < pages.size(); ++k) {
      while (acked.load() <= k) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      while (true) {
        auto r = api.TryGetConceptResolved(pages[k].page.name);
        if (r.ok() && std::find(r->names.begin(), r->names.end(),
                                pages[k].tag) != r->names.end()) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      const auto seen = Clock::now();
      lag_ms.push_back(Seconds(seen - pages[k].acked) * 1e3);
      visible_ms.push_back(Seconds(seen - pages[k].due) * 1e3);
    }
  });
  const auto start = Clock::now();
  for (size_t k = 0; k < pages.size(); ++k) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(k / rate));
    std::this_thread::sleep_until(due);
    if (auto lsn = daemon.Submit(pages[k].page); !lsn.ok()) {
      Die("submit", lsn.status());
    }
    pages[k].due = due;
    pages[k].acked = Clock::now();
    ack_ms.push_back(Seconds(pages[k].acked - due) * 1e3);
    acked.store(k + 1);
  }
  watcher.join();

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  Fields layers{
      {"ingest.wal_sync_us", HistMean("ingest.commit_seconds") * 1e6},
      {"ingest.fsyncs_per_page",
       static_cast<double>(
           obs::MetricsRegistry::Global().counter("ingest.wal.fsyncs")->value()) /
           pages.size()},
      {"core.apply_batch_ms", HistMean("incremental.batch_seconds") * 1e3},
  };
  std::vector<double> publish_ms;
  for (int k = 0; k < 5; ++k) {
    publish_ms.push_back(TimeNs(1, [&] { (void)updater.Publish(&api); }) / 1e6);
  }
  layers["taxonomy.publish_ms"] = Median(publish_ms);

  server::ApiEndpoints read_endpoints(&api);
  server::IngestEndpoints endpoints(&daemon, read_endpoints.AsHandler());
  api.ExportMetrics(&registry);
  daemon.ExportMetrics(&registry);
  server::HttpRequest metrics;
  metrics.method = "GET";
  metrics.target = metrics.path = "/metrics";
  layers["obs.metrics_bytes"] =
      static_cast<double>(endpoints.AsHandler()(metrics).body.size());
  if (auto s = daemon.Stop(ingest::IngestDaemon::StopMode::kDrain); !s.ok()) {
    Die("daemon drain", s);
  }
  Print(layers, {{"setup_s", setup_s},
                 {"latency_ms", Median(visible_ms)},
                 {"ingest_ack_p50_ms", Median(ack_ms)},
                 {"publish_lag_p50_ms", Median(lag_ms)},
                 {"publish_lag_p99_ms", pb::Percentile(lag_ms, 0.99)}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::IgnoreSigpipe();
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "build" && argc == 3) return RunBuild(argv[2]);
  if (mode == "serve" && argc == 5) {
    return RunServe(argv[2], argv[3], std::atof(argv[4]));
  }
  if (mode == "routed" && argc == 5) {
    return RunRouted(argv[2], argv[3], std::atof(argv[4]));
  }
  if (mode == "ingest" && argc == 7) {
    return RunIngest(argv[2], argv[3], std::strtoul(argv[4], nullptr, 10),
                     std::atof(argv[5]), std::strtoul(argv[6], nullptr, 10));
  }
  std::fprintf(stderr,
               "usage: pb_trace build <dir> | serve <dir> <requests> <s> | "
               "routed <dir> <requests> <s> | ingest <dir> <pages> "
               "<entities> <rate> <count>\n");
  return 2;
}

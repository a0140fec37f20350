// Load generator for the benchmark: keep-alive HTTP/1.1 over loopback, one
// thread per connection (the client is in common.h).
//
//   pb_load closed --port P --requests FILE --offset K --conns C
//                  --seconds S --bodies OUT
//   pb_load open   --port P --requests FILE --offset K --conns C --rate R
//                  --seconds S --bodies OUT
//   pb_load ingest --port P --requests FILE --conns C --pages FILE
//                  --rate R --seconds S --bodies OUT
//
// FILE holds one request target per line ("/v1/men2ent?mention=%E4..."),
// already percent-encoded, and a window starts at line K, so successive
// windows can walk the whole list. `closed` sends back to back on every
// connection and reports completions per second after a warm-up; `open`
// sends line K+j at t0 + j/R and times it from that due time, so a stall
// also delays the requests queued behind it. Both keep, per request line, the first response seen
// and compare every later response to it byte for byte (the served
// snapshot never changes in these modes, so cache hits must equal misses);
// the first responses go to OUT as `index <TAB> status <TAB> version <TAB>
// body`. `ingest` runs closed-loop reads beside an open-loop writer that
// POSTs one page per request to /v1/ingest at R pages/s; a watcher polls
// each acked page (`name <TAB> mention <TAB> tag` lines in --pages) until
// getConcept shows the tag, then checks men2ent resolves the mention to the
// name, and writes one `name <TAB> acked <TAB> visible <TAB> mention_ok`
// line per page to OUT. It reports the readers' median rate over 0.5 s
// windows while the writer runs and, per page, the time from when its POST
// was due until a read first showed it. Reads beside ingest may answer 200 or 404, but a
// request line's status must not flip. Every mode reports each change of a
// connection's version stamp, so the caller can check none goes backwards.
// The summary is one JSON line on stdout.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/prctl.h>

#include "common.h"

namespace {

using namespace pb;

// Per-connection bookkeeping shared by every mode.
struct Worker {
  std::atomic<uint64_t> done{0};
  uint64_t attempted = 0;
  uint64_t failed = 0;          // transport errors and non-200 answers
  uint64_t body_mismatches = 0;
  uint64_t hits = 0, misses = 0;
  long long last_version = -1;
  std::vector<double> latencies;  // seconds
  std::map<size_t, Response> first;  // request index -> first response

  // (from, to) each time this connection's version stamp changed.
  std::vector<std::pair<long long, long long>> version_changes;

  void CheckVersion(const Response& r) {
    if (r.version != last_version && last_version >= 0) {
      version_changes.emplace_back(last_version, r.version);
    }
    last_version = r.version;
  }

  // Records one answer and compares it with the first answer to the same
  // request line: byte for byte while the snapshot is fixed, by status
  // alone (200 or 404, which must not flip) while pages are ingested.
  void Observe(bool ok, size_t index, Response& r, bool status_only) {
    ++attempted;
    if (!ok || !(r.status == 200 || (status_only && r.status == 404))) {
      ++failed;
      return;
    }
    CheckVersion(r);
    if (r.cache > 0) ++hits;
    if (r.cache < 0) ++misses;
    auto it = first.find(index);
    if (it == first.end()) {
      if (status_only) r.body.clear();
      first.emplace(index, std::move(r));
    } else if (it->second.status != r.status ||
               (!status_only && (it->second.body != r.body ||
                                 it->second.version != r.version))) {
      ++body_mismatches;
    }
  }
};

// Closed loop: requests answered before this point are not counted.
constexpr double kWarmupSeconds = 0.1;
// Ingest: how long the watcher keeps polling after the writer stops, the
// window over which the readers' rate is taken (the median window counts),
// and the watcher's pause after a round of polls that saw no new page.
constexpr double kGraceSeconds = 5.0;
constexpr double kReadWindowSeconds = 0.5;
constexpr int kPollPauseUs = 500;

struct Args {
  std::string mode;
  int port = 0;
  std::string requests, pages, bodies;
  size_t offset = 0;
  int conns = 1;
  double rate = 1000, seconds = 1.0;
};

Args Parse(int argc, char** argv) {
  Args a;
  if (argc < 2) {
    std::fprintf(stderr, "usage: pb_load closed|open|ingest --port P ...\n");
    std::exit(2);
  }
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--port") a.port = std::atoi(v);
    else if (k == "--requests") a.requests = v;
    else if (k == "--pages") a.pages = v;
    else if (k == "--bodies") a.bodies = v;
    else if (k == "--offset") a.offset = std::strtoull(v, nullptr, 10);
    else if (k == "--conns") a.conns = std::max(1, std::atoi(v));
    else if (k == "--rate") a.rate = std::atof(v);
    else if (k == "--seconds") a.seconds = std::atof(v);
    else {
      std::fprintf(stderr, "pb_load: unknown flag %s\n", k.c_str());
      std::exit(2);
    }
  }
  return a;
}

// Closed loop: each connection walks the request list from its own offset.
// Returns completions per second over `seconds` after the warm-up.
double RunClosed(const Args& a, const std::vector<std::string>& reqs,
                 std::deque<Worker>& workers) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < a.conns; ++t) {
    threads.emplace_back([&, t] {
      Conn conn(a.port);
      Worker& w = workers[t];
      size_t i = (a.offset + reqs.size() * t / a.conns) % reqs.size();
      Response r;
      while (!stop.load(std::memory_order_relaxed)) {
        const bool ok = conn.Request("GET", reqs[i], "", &r);
        w.Observe(ok, i, r, false);
        w.done.fetch_add(1, std::memory_order_relaxed);
        if (++i == reqs.size()) i = 0;
      }
    });
  }
  const auto total = [&] {
    uint64_t n = 0;
    for (const Worker& w : workers) n += w.done.load(std::memory_order_relaxed);
    return n;
  };
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  const uint64_t before = total();
  const auto t0 = Clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(a.seconds));
  const double rps = (total() - before) / Seconds(Clock::now() - t0);
  stop = true;
  for (auto& th : threads) th.join();
  return rps;
}

// Sleeps until shortly before `due`, then spins, so the send is not late by
// the kernel's wakeup slack. The spin yields: connections may share a CPU.
void WaitUntil(Clock::time_point due) {
  std::this_thread::sleep_until(due - std::chrono::microseconds(50));
  while (Clock::now() < due) std::this_thread::yield();
}

// Open loop at a fixed total rate, line offset + j due at t0 + j / rate.
void RunOpen(const Args& a, const std::vector<std::string>& reqs,
             std::deque<Worker>& workers, double* max_late) {
  const size_t total = static_cast<size_t>(a.rate * a.seconds);
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  std::vector<double> late(a.conns, 0.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < a.conns; ++t) {
    threads.emplace_back([&, t] {
      Conn conn(a.port);
      Worker& w = workers[t];
      Response r;
      for (size_t j = t; j < total; j += a.conns) {
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(j / a.rate));
        WaitUntil(due);
        const auto sent = Clock::now();
        late[t] = std::max(late[t], Seconds(sent - due));
        const size_t i = (a.offset + j) % reqs.size();
        const bool ok = conn.Request("GET", reqs[i], "", &r);
        w.latencies.push_back(Seconds(Clock::now() - due));
        w.Observe(ok, i, r, false);
      }
    });
  }
  for (auto& th : threads) th.join();
  *max_late = *std::max_element(late.begin(), late.end());
}

struct Page {
  std::string name, mention, tag;
  Clock::time_point due, acked;
  bool was_acked = false, visible = false, mention_ok = false;
};

// Reads beside writes: closed-loop readers, an open-loop page writer and a
// visibility watcher. Returns the ingest-side summary as JSON fields.
std::string RunIngest(const Args& a, const std::vector<std::string>& reqs,
                      std::deque<Worker>& workers) {
  std::vector<Page> pages;
  for (const std::string& line : ReadLines(a.pages)) {
    Page p;
    const size_t t1 = line.find('\t'), t2 = line.find('\t', t1 + 1);
    p.name = line.substr(0, t1);
    p.mention = line.substr(t1 + 1, t2 - t1 - 1);
    p.tag = line.substr(t2 + 1);
    pages.push_back(p);
  }
  const size_t total =
      std::min(pages.size(), static_cast<size_t>(a.rate * a.seconds));
  std::atomic<bool> stop_reads{false}, writer_done{false};
  std::mutex mu;
  std::deque<size_t> pending;  // acked, not yet seen
  std::vector<double> ack_lat, lag, visible_lat;
  uint64_t write_failed = 0;
  double max_late = 0.0;
  std::vector<double> read_rates;  // reads/s per kReadWindowSeconds window
  const auto reads_done = [&] {
    uint64_t n = 0;
    for (int t = 0; t < a.conns; ++t) {
      n += workers[t].done.load(std::memory_order_relaxed);
    }
    return n;
  };
  Worker watch;

  std::vector<std::thread> threads;
  for (int t = 0; t < a.conns; ++t) {
    threads.emplace_back([&, t] {
      Conn conn(a.port);
      Worker& w = workers[t];
      size_t i = reqs.size() * t / a.conns;
      Response r;
      while (!stop_reads.load(std::memory_order_relaxed)) {
        w.Observe(conn.Request("GET", reqs[i], "", &r), i, r, true);
        w.done.fetch_add(1, std::memory_order_relaxed);
        if (++i == reqs.size()) i = 0;
      }
    });
  }
  std::thread writer([&] {
    Conn conn(a.port);
    Response r;
    const auto t0 = Clock::now() + std::chrono::milliseconds(20);
    std::this_thread::sleep_until(t0);
    auto window_start = t0;
    uint64_t window_reads = reads_done();
    for (size_t k = 0; k < total; ++k) {
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(k / a.rate));
      std::this_thread::sleep_until(due);
      if (Seconds(Clock::now() - window_start) >= kReadWindowSeconds) {
        const auto now = Clock::now();
        const uint64_t reads = reads_done();
        read_rates.push_back((reads - window_reads) /
                             Seconds(now - window_start));
        window_start = now;
        window_reads = reads;
      }
      max_late = std::max(max_late, Seconds(Clock::now() - due));
      const Page& p = pages[k];
      const std::string body =
          "u\t" + p.name + "\t" + p.mention + "\t\t\t\t" + p.tag + "\n";
      if (!conn.Request("POST", "/v1/ingest", body, &r) || r.status != 200) {
        ++write_failed;
        continue;
      }
      const auto now = Clock::now();
      ack_lat.push_back(Seconds(now - due));
      std::lock_guard<std::mutex> lk(mu);
      pages[k].due = due;
      pages[k].acked = now;
      pages[k].was_acked = true;
      pending.push_back(k);
    }
    writer_done = true;
  });
  std::thread watcher([&] {
    Conn conn(a.port);
    Response r;
    Clock::time_point deadline = Clock::time_point::max();
    while (true) {
      std::vector<size_t> round;
      {
        std::lock_guard<std::mutex> lk(mu);
        round.assign(pending.begin(), pending.end());
      }
      if (round.empty()) {
        if (writer_done) break;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      if (writer_done && deadline == Clock::time_point::max()) {
        deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(kGraceSeconds));
      }
      if (Clock::now() > deadline) break;
      bool any_visible = false;
      for (const size_t k : round) {
        Page& p = pages[k];
        const bool ok = conn.Request(
            "GET", "/v1/getConcept?entity=" + PercentEncode(p.name), "", &r);
        const auto seen = Clock::now();
        const bool visible =
            ok && r.status == 200 &&
            r.body.find("\"" + p.tag + "\"") != std::string::npos;
        if (ok) watch.CheckVersion(r);
        if (!visible) continue;
        any_visible = true;
        p.visible = true;
        lag.push_back(Seconds(seen - p.acked));
        visible_lat.push_back(Seconds(seen - p.due));
        const bool m_ok = conn.Request(
            "GET", "/v1/men2ent?mention=" + PercentEncode(p.mention), "", &r);
        if (m_ok) watch.CheckVersion(r);
        p.mention_ok =
            m_ok && r.body.find("\"" + p.name + "\"") != std::string::npos;
        std::lock_guard<std::mutex> lk(mu);
        pending.erase(std::find(pending.begin(), pending.end(), k));
      }
      // Pages become visible a publish at a time, so a round that found
      // none is followed by a short pause rather than the next round at
      // once; the readers then share the server with fewer polls.
      if (!any_visible) {
        std::this_thread::sleep_for(std::chrono::microseconds(kPollPauseUs));
      }
    }
  });
  writer.join();
  watcher.join();
  stop_reads = true;
  for (auto& th : threads) th.join();
  workers.emplace_back();
  workers.back().version_changes = std::move(watch.version_changes);
  std::ofstream outcomes(a.bodies);
  for (size_t k = 0; k < total; ++k) {
    outcomes << pages[k].name << '\t' << pages[k].was_acked << '\t'
             << pages[k].visible << '\t' << pages[k].mention_ok << '\n';
  }
  char out[512];
  std::snprintf(out, sizeof(out),
                "\"pages\":%zu,\"write_failed\":%llu,\"ack_p50_s\":%.9f,"
                "\"lag_p50_s\":%.9f,\"lag_p99_s\":%.9f,\"lag_n\":%zu,"
                "\"visible_p50_s\":%.9f,\"read_rps\":%.3f,"
                "\"read_rps_p10\":%.3f,\"read_rps_p90\":%.3f,"
                "\"writer_max_late_s\":%.6f",
                total, static_cast<unsigned long long>(write_failed),
                Percentile(ack_lat, 0.5), Percentile(lag, 0.5),
                Percentile(lag, 0.99), lag.size(),
                Percentile(visible_lat, 0.5), Percentile(read_rates, 0.5),
                Percentile(read_rates, 0.1), Percentile(read_rates, 0.9),
                max_late);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = Parse(argc, argv);
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // this process's sleeps only
  const std::vector<std::string> reqs = ReadLines(a.requests);
  if (a.port <= 0 || reqs.empty()) {
    std::fprintf(stderr, "pb_load: need --port and a non-empty --requests\n");
    return 2;
  }
  std::deque<Worker> workers(a.conns);
  std::string extra;
  if (a.mode == "closed") {
    extra = "\"rps\":" + std::to_string(RunClosed(a, reqs, workers));
  } else if (a.mode == "open") {
    double max_late = 0.0;
    RunOpen(a, reqs, workers, &max_late);
    std::vector<double> all;
    for (const Worker& w : workers) {
      all.insert(all.end(), w.latencies.begin(), w.latencies.end());
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"p50_s\":%.9f,\"p90_s\":%.9f,\"p99_s\":%.9f,\"n\":%zu,"
                  "\"max_late_s\":%.6f",
                  Percentile(all, 0.5), Percentile(all, 0.9),
                  Percentile(all, 0.99), all.size(),
                  max_late);
    extra = buf;
  } else if (a.mode == "ingest") {
    extra = RunIngest(a, reqs, workers);
  } else {
    std::fprintf(stderr, "pb_load: unknown mode %s\n", a.mode.c_str());
    return 2;
  }

  uint64_t attempted = 0, failed = 0, mismatches = 0,
           hits = 0, misses = 0;
  std::map<size_t, const Response*> first;
  for (const Worker& w : workers) {
    attempted += w.attempted;
    failed += w.failed;
    mismatches += w.body_mismatches;
    hits += w.hits;
    misses += w.misses;
    for (const auto& [index, r] : w.first) {
      auto [it, fresh] = first.emplace(index, &r);
      if (!fresh && (it->second->status != r.status ||
                     (a.mode != "ingest" && (it->second->body != r.body ||
                                             it->second->version != r.version)))) {
        ++mismatches;
      }
    }
  }
  if (!a.bodies.empty() && a.mode != "ingest") {
    std::ofstream out(a.bodies);
    for (const auto& [index, r] : first) {
      std::string_view body = r->body;
      while (!body.empty() && body.back() == '\n') body.remove_suffix(1);
      out << index << '\t' << r->status << '\t' << r->version << '\t'
          << body << '\n';
    }
  }
  std::string changes = "[";
  for (size_t c = 0; c < workers.size(); ++c) {
    for (const auto& [from, to] : workers[c].version_changes) {
      changes += (changes.size() > 1 ? ",[" : "[") + std::to_string(c) + "," +
                 std::to_string(from) + "," + std::to_string(to) + "]";
    }
  }
  changes += "]";
  std::printf("{\"attempted\":%llu,\"failed\":%llu,\"version_changes\":%s,"
              "\"body_mismatches\":%llu,\"cache_hits\":%llu,"
              "\"cache_misses\":%llu,%s}\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              changes.c_str(),
              static_cast<unsigned long long>(mismatches),
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses), extra.c_str());
  return 0;
}

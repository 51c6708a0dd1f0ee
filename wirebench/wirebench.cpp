// wirebench — the end-to-end benchmark of the XQuery join-graph server.
//
// Runs one of three seeded, fixed-work workloads against an in-process
// server::QueryServer through server::Client on loopback TCP, checks every
// result against the native interpreter (the independent DOM-walking
// oracle) and against values read from the generated XML text, and prints
// one JSON object as the last line of standard output. README.md beside
// this file describes the workloads, the metrics and reference figures;
// run.py builds this program and runs it.
//
//   wirebench --workload adhoc|serve|churn --seed N --seconds S --trace 0|1
//             [--corpus-seed N] [--trace-file PATH]
//
// Fixed work: the number of operations is a function of --seconds, never of
// the clock, so every run at one --seconds executes the same seeded
// sequence and rates come from that fixed work. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the same workload with spans recorded
// around every wire call, then replays the compile stages on each distinct
// statement, and reports the per-layer metrics.
//
// End-to-end operations go through the wire client only, with the server's
// default executor, so the benchmark names no executor selection.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <latch>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/api/paper_queries.h"
#include "src/api/processor.h"
#include "src/compiler/compile.h"
#include "src/data/dblp.h"
#include "src/data/xmark.h"
#include "src/engine/planner.h"
#include "src/opt/isolate.h"
#include "src/opt/join_graph.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/xquery/normalize.h"
#include "src/xquery/parser.h"

using namespace xqjg;

namespace {

// ---- Corpus (identical make-up in every workload) ----
constexpr double kAuctionScale = 0.5;
constexpr int kDblpPublications = 2000;
constexpr int kSmallDocs = 4;
constexpr double kSmallScale = 0.1;
constexpr uint64_t kDefaultCorpusSeed = 42;
const char kAuction[] = "auction.xml";
const char kDblp[] = "dblp.xml";

// ---- Fixed work per second of --seconds (calibrated so one run takes
// about --seconds on the reference machine; see README.md) ----
constexpr double kAdhocRoundsPerSecond = 1.25;  // 6 statements per round
constexpr double kServeRoundsPerSecond = 1.75;  // 15 requests per client
constexpr double kChurnRoundsPerSecond = 3.75;  // 2 mutations + 8 queries

constexpr uint8_t kJoinGraphMode = 1;  // PREPARE mode byte (protocol.h)
/// A session holds at most 64 statements and the protocol cannot release
/// one, so clients that prepare distinct texts reconnect before the quota.
constexpr int kStatementsPerConnection = 60;
/// churn reconnects after every round: each prepared statement pins the
/// catalog snapshot it compiled against, and every round's index rebuild
/// makes a new one (CHANGES.md, FOUND).
constexpr int kChurnStatementsPerConnection = 8;
constexpr uint32_t kFetchBatch = 256;
constexpr int kTailSamplesBeyond = 10;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

/// High-water resident set size of this process (server and clients
/// alike), in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t HashItems(const std::vector<std::string>& items) {
  uint64_t h = 1469598103934665603ULL;
  for (const auto& item : items) {
    for (unsigned char c : item) h = (h ^ c) * 1099511628211ULL;
    h = (h ^ 0xFF) * 1099511628211ULL;
  }
  return h ^ items.size();
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least kTailSamplesBeyond samples beyond
/// it: the (n - 10)-th smallest of n samples, or the median when there are
/// fewer than 40 samples (no tail to speak of). Returns the percentile too.
double Tail(std::vector<double> v, double* percentile) {
  const size_t n = v.size();
  if (n < 4 * kTailSamplesBeyond) {
    *percentile = 50.0;
    return Median(std::move(v));
  }
  std::sort(v.begin(), v.end());
  const size_t idx = n - kTailSamplesBeyond - 1;
  *percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return v[idx];
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

// ---- Tracing: spans kept in memory, written out when the run ends ----

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Now()) {}

  /// Opens a span under `parent` (-1: a new request). Returns -1 when
  /// tracing is off.
  int Begin(const char* name, int parent) {
    if (!enabled_) return -1;
    const double start = Now();
    std::lock_guard<std::mutex> lock(mu_);
    const int id = static_cast<int>(spans_.size());
    const int request = parent < 0 ? id : spans_[parent].request;
    spans_.push_back(Span{name, parent, request, start, start});
    return id;
  }
  void End(int id) {
    if (id < 0) return;
    const double end = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].end = end;
  }

  /// Writes every span with its self time (duration minus the time its
  /// children cover; a span's children run one after another).
  bool Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_time[s.parent] += s.end - s.start;
    }
    std::string out = "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double dur = s.end - s.start;
      out += "{\"id\":" + std::to_string(i) +
             ",\"parent\":" + std::to_string(s.parent) +
             ",\"request\":" + std::to_string(s.request) + ",\"name\":\"" +
             s.name + "\",\"start_ms\":" + Num((s.start - origin_) * 1e3) +
             ",\"dur_ms\":" + Num(dur * 1e3) +
             ",\"self_ms\":" + Num((dur - child_time[i]) * 1e3) + "}";
      out += i + 1 < spans_.size() ? ",\n" : "\n";
    }
    out += "]\n";
    std::error_code ignored;
    const auto dir = std::filesystem::path(path).parent_path();
    if (!dir.empty()) std::filesystem::create_directories(dir, ignored);
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << out;
    return static_cast<bool>(file);
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  struct Span {
    const char* name;
    int parent;
    int request;
    double start;
    double end;
  };
  const bool enabled_;
  const double origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int parent)
      : tracer_(tracer), id_(tracer.Begin(name, parent)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  const int id_;
};

// ---- Per-layer observations made at the wire (one per client thread) ----

struct LayerStats {
  std::vector<double> prepare_ms;  // PREPARE round trips
  std::vector<double> execute_ms;  // EXECUTE_OK exec_seconds
  std::vector<double> wait_ms;     // EXECUTE round trip minus exec_seconds
  std::vector<double> fetch_ms;    // FETCH round trips, summed per request
  std::vector<double> load_ms;     // LOAD_DOC round trips
  std::vector<double> index_ms;    // INDEX_DDL round trips
  int64_t executes = 0;            // EXECUTE requests sent
  int64_t fallback_prepares = 0;   // PREPARE_OK with used_fallback

  void Merge(const LayerStats& o) {
    auto append = [](std::vector<double>* dst, const std::vector<double>& s) {
      dst->insert(dst->end(), s.begin(), s.end());
    };
    append(&prepare_ms, o.prepare_ms);
    append(&execute_ms, o.execute_ms);
    append(&wait_ms, o.wait_ms);
    append(&fetch_ms, o.fetch_ms);
    append(&load_ms, o.load_ms);
    append(&index_ms, o.index_ms);
    executes += o.executes;
    fallback_prepares += o.fallback_prepares;
  }
};

/// One client connection, timing each round trip into LayerStats and the
/// tracer. Reconnects on demand before the session's statement quota.
class Conn {
 public:
  Conn(int port, Tracer* tracer, LayerStats* layers,
       int statement_budget = kStatementsPerConnection)
      : port_(port),
        tracer_(tracer),
        layers_(layers),
        statement_budget_(statement_budget) {}
  ~Conn() { Close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  Status Open() {
    auto connected = server::Client::Connect("127.0.0.1", port_);
    XQJG_RETURN_NOT_OK(connected.status());
    client_ = std::move(connected).value();
    statements_ = 0;
    return Status::OK();
  }
  void Close() {
    if (client_) client_->Goodbye().ok();
    client_.reset();
  }
  /// Opens a fresh session when the next PREPARE would pass the quota
  /// (statement ids of the old session die with it).
  Status EnsureStatementRoom() {
    if (client_ && statements_ < statement_budget_) {
      return Status::OK();
    }
    Close();
    return Open();
  }

  Result<server::PrepareResult> Prepare(const std::string& text,
                                        const std::string& context,
                                        int parent) {
    ScopedSpan span(*tracer_, "api.prepare", parent);
    const double t0 = Now();
    auto prepared = client_->Prepare(text, kJoinGraphMode, context);
    layers_->prepare_ms.push_back((Now() - t0) * 1e3);
    if (prepared.ok()) {
      ++statements_;
      if (prepared.value().used_fallback) ++layers_->fallback_prepares;
    }
    return prepared;
  }

  /// EXECUTE, FETCH to exhaustion, CLOSE_CURSOR.
  Status Run(uint32_t statement, const std::map<std::string, Value>& params,
             int parent, std::vector<std::string>* items) {
    server::ExecuteResult executed;
    {
      ScopedSpan span(*tracer_, "server.execute", parent);
      ++layers_->executes;
      const double t0 = Now();
      auto result = client_->Execute(statement, params);
      const double rtt = Now() - t0;
      XQJG_RETURN_NOT_OK(result.status());
      executed = result.value();
      layers_->execute_ms.push_back(executed.execute_seconds * 1e3);
      layers_->wait_ms.push_back((rtt - executed.execute_seconds) * 1e3);
    }
    double fetch_seconds = 0.0;
    for (bool exhausted = false; !exhausted;) {
      ScopedSpan span(*tracer_, "server.fetch", parent);
      const double t0 = Now();
      auto batch = client_->Fetch(executed.cursor_id, kFetchBatch);
      fetch_seconds += Now() - t0;
      XQJG_RETURN_NOT_OK(batch.status());
      exhausted = batch.value().exhausted;
      for (auto& item : batch.value().items) items->push_back(std::move(item));
    }
    layers_->fetch_ms.push_back(fetch_seconds * 1e3);
    ScopedSpan span(*tracer_, "server.close_cursor", parent);
    return client_->CloseCursor(executed.cursor_id);
  }

  Status Load(const std::string& uri, const std::string& text, int parent) {
    ScopedSpan span(*tracer_, "xml.load", parent);
    const double t0 = Now();
    Status s = client_->LoadDocument(uri, text);
    layers_->load_ms.push_back((Now() - t0) * 1e3);
    return s;
  }

  Status CreateIndexes(int parent) {
    ScopedSpan span(*tracer_, "engine.index_build", parent);
    const double t0 = Now();
    Status s = client_->IndexDdl(/*create the Table VI set*/ 0);
    layers_->index_ms.push_back((Now() - t0) * 1e3);
    return s;
  }

  server::Client& client() { return *client_; }

 private:
  const int port_;
  Tracer* const tracer_;
  LayerStats* const layers_;
  const int statement_budget_;
  std::unique_ptr<server::Client> client_;
  int statements_ = 0;
};

// ---- Queries, their results, and what they must equal ----

enum class Family { kQ1, kQ2, kQ3, kQ4, kQ5, kQ6 };

const char* FamilyName(Family f) {
  static const char* kNames[] = {"Q1", "Q2", "Q3", "Q4", "Q5", "Q6"};
  return kNames[static_cast<int>(f)];
}

/// One query as executed: text, the one document it reads (also the
/// PREPARE context document) at a content version, parameter bindings,
/// and what the independent text checks need.
struct QuerySpec {
  Family family = Family::kQ1;
  std::string text;
  std::string doc;
  int version = 0;
  std::map<std::string, Value> params;
  // Q3 family: person id and the child element whose text is returned.
  std::string person, field;
  // Q4 family: price filter ('\0' for none).
  char cmp = '\0';
  double bound = 0.0;

  std::string Key() const {
    std::string key = text + '\x1f' + doc + '#' + std::to_string(version);
    for (const auto& [name, value] : params) {
      key += '\x1f' + name + '=' + value.ToString();
    }
    return key;
  }
};

/// Every distinct query's first result, plus a hash comparison of every
/// later result for the same key. Thread-safe.
class ResultLog {
 public:
  struct Entry {
    QuerySpec spec;
    std::vector<std::string> items;
    uint64_t hash = 0;
    int64_t executions = 0;
    int64_t disagreements = 0;  // executions whose result differs
  };

  void Record(const QuerySpec& spec, std::vector<std::string> items) {
    const uint64_t hash = HashItems(items);
    const std::string key = spec.Key();
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = index_.emplace(key, entries_.size());
    if (inserted) {
      entries_.push_back(Entry{spec, std::move(items), hash, 0, 0});
    }
    Entry& entry = entries_[it->second];
    ++entry.executions;
    if (entry.hash != hash) ++entry.disagreements;
  }

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::mutex mu_;
  std::map<std::string, size_t> index_;
  std::vector<Entry> entries_;
};

/// Every version of every document the run loaded, in load order.
using DocVersions = std::map<std::string, std::vector<std::string>>;

struct Corpus {
  DocVersions docs;  // version 0 of each document
  int people = 0;
};

std::string SmallUri(int d) { return "doc_" + std::to_string(d) + ".xml"; }

std::string SmallDocText(uint64_t seed) {
  data::XmarkOptions small;
  small.scale = kSmallScale;
  small.seed = seed;
  return data::GenerateXmark(small);
}

Corpus MakeCorpus(uint64_t corpus_seed) {
  Corpus corpus;
  data::XmarkOptions xmark;
  xmark.scale = kAuctionScale;
  xmark.seed = Mix(corpus_seed, 1);
  corpus.people = xmark.people();
  corpus.docs[kAuction].push_back(data::GenerateXmark(xmark));
  data::DblpOptions dblp;
  dblp.publications = kDblpPublications;
  dblp.seed = Mix(corpus_seed, 2);
  corpus.docs[kDblp].push_back(data::GenerateDblp(dblp));
  for (int d = 0; d < kSmallDocs; ++d) {
    corpus.docs[SmallUri(d)].push_back(SmallDocText(Mix(corpus_seed, 10 + d)));
  }
  return corpus;
}

// ---- Independent expectations read from the generated XML text ----

/// Q3 family: the text of `field` in the person with id `person`.
std::vector<std::string> ExpectPersonField(const std::string& xml,
                                           const std::string& person,
                                           const std::string& field) {
  const size_t at = xml.find("<person id=\"" + person + "\">");
  if (at == std::string::npos) return {};
  const size_t end = xml.find("</person>", at);
  const std::string open = "<" + field + ">";
  const size_t begin = xml.find(open, at);
  if (begin == std::string::npos || begin > end) return {};
  const size_t from = begin + open.size();
  const size_t to = xml.find("</" + field + ">", from);
  return {xml.substr(from, to - from)};
}

/// Q4 family: every closed-auction price (the only <price> elements the
/// generator writes), filtered, in document order.
std::vector<std::string> ExpectPrices(const std::string& xml, char cmp,
                                      double bound) {
  std::vector<std::string> out;
  for (size_t at = xml.find("<price>"); at != std::string::npos;
       at = xml.find("<price>", at + 1)) {
    const size_t from = at + 7;
    const std::string price = xml.substr(from, xml.find('<', from) - from);
    const double v = std::strtod(price.c_str(), nullptr);
    if (cmp == '\0' || (cmp == '>' && v > bound) || (cmp == '<' && v < bound)) {
      out.push_back(price);
    }
  }
  return out;
}

/// True when the items occur in `xml` at strictly increasing offsets —
/// each in its own place, so the result is in document order and holds
/// no node twice. Elements are matched as serialized, text items between
/// their enclosing tags.
bool InDocumentOrder(const std::vector<std::string>& items,
                     const std::string& xml) {
  size_t pos = 0;
  for (const auto& item : items) {
    const std::string needle =
        !item.empty() && item[0] == '<' ? item : ">" + item + "<";
    const size_t found = xml.find(needle, pos);
    if (found == std::string::npos) return false;
    pos = found + 1;
  }
  return true;
}

std::string Preview(const std::vector<std::string>& items) {
  std::string out = std::to_string(items.size()) + " items";
  if (!items.empty()) out += ", first " + items.front().substr(0, 60);
  return out;
}

/// Checks every logged result: equal, items in order, to the native
/// interpreter on the same content (a fresh processor loaded with the
/// exact text version the query read); for the Q3/Q4 families equal to
/// the values read from the text itself; in document order; and every
/// Q1-family hit has a bidder. Returns the problems found.
std::vector<std::string> CheckResults(const ResultLog& log,
                                      const DocVersions& docs) {
  std::vector<std::string> problems;
  std::vector<const ResultLog::Entry*> order;
  for (const auto& entry : log.entries()) order.push_back(&entry);
  std::stable_sort(order.begin(), order.end(), [](auto* a, auto* b) {
    return std::tie(a->spec.doc, a->spec.version) <
           std::tie(b->spec.doc, b->spec.version);
  });
  api::XQueryProcessor oracle;
  std::map<std::string, int> loaded;  // uri -> version in the oracle
  for (const ResultLog::Entry* entry : order) {
    const QuerySpec& spec = entry->spec;
    const std::string& xml = docs.at(spec.doc).at(spec.version);
    auto note = [&](const std::string& what) {
      problems.push_back(std::string(FamilyName(spec.family)) + " on " +
                         spec.doc + "#" + std::to_string(spec.version) +
                         ": " + what + " [" + spec.text + "]");
    };
    if (entry->disagreements > 0) {
      note(std::to_string(entry->disagreements) + " of " +
           std::to_string(entry->executions) +
           " executions returned another result than the first");
    }
    auto it = loaded.find(spec.doc);
    if (it == loaded.end() || it->second != spec.version) {
      Status s = oracle.LoadDocument(spec.doc, xml);
      if (!s.ok()) {
        note("oracle load failed: " + s.ToString());
        continue;
      }
      loaded[spec.doc] = spec.version;
    }
    api::PrepareOptions popts;
    popts.mode = api::Mode::kNativeWhole;
    popts.context_document = spec.doc;
    auto prepared = oracle.Prepare(spec.text, popts);
    if (!prepared.ok()) {
      note("oracle prepare failed: " + prepared.status().ToString());
      continue;
    }
    api::ExecuteOptions eopts;
    eopts.parameters = spec.params;
    auto expected = oracle.ExecuteAll(prepared.value(), eopts);
    if (!expected.ok()) {
      note("oracle execution failed: " + expected.status().ToString());
      continue;
    }
    if (expected.value().items != entry->items) {
      note("differs from the native oracle: got " + Preview(entry->items) +
           "; oracle " + Preview(expected.value().items));
    }
    if (spec.family == Family::kQ3) {
      const auto want = ExpectPersonField(xml, spec.person, spec.field);
      if (want != entry->items) {
        note("differs from the text: got " + Preview(entry->items) +
             "; text " + Preview(want));
      }
    }
    if (spec.family == Family::kQ4) {
      const auto want = ExpectPrices(xml, spec.cmp, spec.bound);
      if (want != entry->items) {
        note("differs from the text: got " + Preview(entry->items) +
             "; text " + Preview(want));
      }
    }
    // Q2 is a FLWOR over a join: its result follows the iteration order
    // and may repeat a category, so only path-shaped results qualify.
    if (spec.family != Family::kQ2 && !InDocumentOrder(entry->items, xml)) {
      note("not duplicate-free in document order: " + Preview(entry->items));
    }
    if (spec.family == Family::kQ1) {
      for (const auto& item : entry->items) {
        if (item.find("<bidder>") == std::string::npos) {
          note("a hit without a bidder: " + item.substr(0, 60));
          break;
        }
      }
    }
  }
  return problems;
}

// ---- Query texts ----

const char* const kVenues[] = {"vldb", "sigmod", "icde", "edbt", "cidr"};

int UniformInt(std::mt19937_64& rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(rng);
}

/// An ad-hoc member of `family`: the paper query with a drawn literal or an
/// added value predicate. `round` picks the variant (comparison, element,
/// field) in a fixed cycle, so every run holds the same mix of variants
/// whatever the seed; only the literals are drawn.
QuerySpec AdhocQuery(Family family, int round, std::mt19937_64& rng,
                     int people) {
  QuerySpec q;
  q.family = family;
  switch (family) {
    case Family::kQ1: {
      const char* field = round % 2 ? "initial" : "current";
      const char cmp = round / 2 % 2 ? '>' : '<';
      q.doc = kAuction;
      q.text = std::string("doc(\"auction.xml\")/descendant::open_auction"
                           "[bidder][") +
               field + " " + cmp + " " + std::to_string(UniformInt(rng, 1, 800)) +
               "]";
      break;
    }
    case Family::kQ3:
      q.doc = kAuction;
      q.person = "person" + std::to_string(UniformInt(rng, 0, 2 * people));
      q.field = round % 2 ? "name" : "emailaddress";
      q.text = "/site/people/person[@id = \"" + q.person + "\"]/" + q.field +
               "/text()";
      break;
    case Family::kQ4:
      q.doc = kAuction;
      q.cmp = round % 2 ? '>' : '<';
      q.bound = UniformInt(rng, 1, 2000);
      q.text = std::string("//closed_auction[price ") + q.cmp + " " +
               std::to_string(static_cast<int>(q.bound)) +
               "]/price/text()";
      break;
    case Family::kQ5: {
      // One in four keys names an inproceedings entry, which has no editor.
      const char* venue = kVenues[UniformInt(rng, 0, 4)];
      const std::string key =
          round % 4 ? std::string("conf/") + venue +
                          std::to_string(UniformInt(rng, 1985, 2007)) + "/p"
                    : std::string("conf/") + venue + "/" +
                          std::to_string(UniformInt(rng, 0, kDblpPublications));
      q.doc = kDblp;
      q.text = "/dblp/*[@key = \"" + key + "\" and editor and title]/title";
      break;
    }
    case Family::kQ6: {
      const char* kinds[] = {"phdthesis", "article", "inproceedings"};
      const char* cmps[] = {"<", ">", "="};
      q.doc = kDblp;
      q.text = std::string("for $t in /dblp/") + kinds[round % 3] + "[year " +
               cmps[round / 3 % 3] + " \"" +
               std::to_string(UniformInt(rng, 1985, 2008)) +
               "\" and author and title] return $t/title";
      break;
    }
    case Family::kQ2:
      break;
  }
  return q;
}

// ---- Workloads ----

struct OpLog {
  std::vector<double> latency_ms;
  double wall_s = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;

  void Sample(double ms) { latency_ms.push_back(ms); }
  void Fail(const std::string& what, const Status& s) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what + ": " + s.ToString());
  }
  /// Folds another client's log in (the wall time is the caller's).
  void Merge(const OpLog& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    attempted += o.attempted;
    failed += o.failed;
    for (const auto& e : o.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
  }
};

struct Env {
  int port = 0;
  uint64_t seed = 0;
  double seconds = 10.0;
  int people = 0;
  Tracer* tracer = nullptr;
  ResultLog* results = nullptr;
};

/// serve's client count: half the cores, up to four. Each client's
/// session runs on a server connection thread of its own, and the other
/// half of the cores keeps the cheap requests from queueing for a CPU
/// behind the heavy ones.
int ServeClients() {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(cores / 2, 1, 4);
}

/// One statement op: PREPARE (optional), EXECUTE, FETCH; timed whole.
void QueryOp(Conn& conn, const QuerySpec& spec, uint32_t statement,
             bool prepare, Env& env, OpLog* log) {
  ++log->attempted;
  ScopedSpan op(*env.tracer, "request", -1);
  const double t0 = Now();
  if (prepare) {
    auto prepared = conn.Prepare(spec.text, spec.doc, op.id());
    if (!prepared.ok()) {
      log->Fail(spec.text, prepared.status());
      return;
    }
    statement = prepared.value().statement_id;
  }
  std::vector<std::string> items;
  Status s = conn.Run(statement, spec.params, op.id(), &items);
  log->Sample((Now() - t0) * 1e3);
  if (!s.ok()) {
    log->Fail(spec.text, s);
    return;
  }
  env.results->Record(spec, std::move(items));
}

/// Rounds in one run: the fixed work, a function of --seconds only.
int Rounds(double per_second, double seconds) {
  return std::max(1, static_cast<int>(std::lround(per_second * seconds)));
}

/// adhoc: one connection, a closed loop of distinct texts from the Q1, Q3,
/// Q4, Q5 and Q6 families — every PREPARE is a plan-cache miss.
Status RunAdhoc(Env& env, LayerStats* layers, OpLog* log) {
  std::mt19937_64 rng(Mix(env.seed, 100));
  // Q5 comes twice per round. The families' latencies form separate
  // clusters (Q4 < Q1 < Q5 < Q6 < Q3), and with one of each the median
  // would fall on the gap between two of them; this way it falls inside
  // the Q5 cluster.
  const Family families[] = {Family::kQ1, Family::kQ3, Family::kQ4,
                             Family::kQ5, Family::kQ5, Family::kQ6};
  // The whole sequence is drawn up front; texts never repeat in a run.
  std::vector<QuerySpec> work;
  std::set<std::string> used;
  const int rounds = Rounds(kAdhocRoundsPerSecond, env.seconds);
  for (int r = 0; r < rounds; ++r) {
    std::vector<Family> order(std::begin(families), std::end(families));
    std::shuffle(order.begin(), order.end(), rng);
    for (Family f : order) {
      for (int attempt = 0;; ++attempt) {
        if (attempt > 10000) {
          return Status::Internal("ad-hoc text space exhausted");
        }
        QuerySpec q = AdhocQuery(f, r, rng, env.people);
        if (used.insert(q.text).second) {
          work.push_back(std::move(q));
          break;
        }
      }
    }
  }
  Conn conn(env.port, env.tracer, layers);
  const double t0 = Now();
  for (const QuerySpec& q : work) {
    XQJG_RETURN_NOT_OK(conn.EnsureStatementRoom());
    QueryOp(conn, q, 0, /*prepare=*/true, env, log);
  }
  log->wall_s = Now() - t0;
  return Status::OK();
}

/// serve: up to four clients (never more than the machine's cores), each
/// with its statement set prepared once, loop EXECUTE + FETCH with seeded
/// bindings. Every client runs the same number of Q2 (a fallback plan).
Status RunServe(Env& env, std::vector<LayerStats>* layers, OpLog* log,
                double* setup_done, double* cpu_at_start) {
  const int clients = ServeClients();
  auto paper_text = [](const char* id) {
    for (const auto& q : api::PaperQueries()) {
      if (q.id == id) return q.text;
    }
    return std::string();
  };
  struct Statement {
    Family family;
    std::string text, doc;
    int per_round;
  };
  // Requests per round. Latencies form three clusters: Q3 and Q5 under
  // 1 ms, Q4 and Q1 about 2 ms, Q6 and Q2 above. Five requests in each puts
  // the median in the middle of the Q4/Q1 cluster, not on a gap.
  const std::vector<Statement> statements = {
      {Family::kQ1, paper_text("Q1"), kAuction, 2},
      {Family::kQ2, paper_text("Q2"), kAuction, 1},
      {Family::kQ4, paper_text("Q4"), kAuction, 3},
      {Family::kQ3,
       "declare variable $pid as xs:string external; "
       "/site/people/person[@id = $pid]/name/text()",
       kAuction, 3},
      {Family::kQ5,
       "declare variable $key as xs:string external; "
       "/dblp/*[@key = $key and editor and title]/title",
       kDblp, 2},
      {Family::kQ6,
       "declare variable $year as xs:string external; "
       "for $thesis in /dblp/phdthesis[year < $year and author and title] "
       "return $thesis/title",
       kDblp, 4},
  };
  const int rounds = Rounds(kServeRoundsPerSecond, env.seconds);
  layers->resize(static_cast<size_t>(clients));
  std::vector<OpLog> logs(static_cast<size_t>(clients));
  // Set-up: the clients connect and prepare one after another, so the
  // first compiles each statement and the rest hit the plan cache.
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<std::vector<uint32_t>> ids(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    conns.push_back(std::make_unique<Conn>(env.port, env.tracer,
                                           &(*layers)[c]));
    XQJG_RETURN_NOT_OK(conns[c]->Open());
    for (const Statement& st : statements) {
      auto p = conns[c]->Prepare(st.text, st.doc, -1);
      XQJG_RETURN_NOT_OK(p.status());
      ids[c].push_back(p.value().statement_id);
    }
  }
  std::latch go(1);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Conn& conn = *conns[c];
      std::mt19937_64 rng(Mix(env.seed, 200 + c));
      std::vector<size_t> order;
      for (size_t i = 0; i < statements.size(); ++i) {
        order.insert(order.end(), statements[i].per_round, i);
      }
      go.wait();
      for (int r = 0; r < rounds; ++r) {
        std::shuffle(order.begin(), order.end(), rng);
        for (size_t i : order) {
          QuerySpec q;
          q.family = statements[i].family;
          q.text = statements[i].text;
          q.doc = statements[i].doc;
          if (q.family == Family::kQ3) {
            q.person =
                "person" + std::to_string(UniformInt(rng, 0, env.people));
            q.field = "name";
            q.params["pid"] = Value::String(q.person);
          } else if (q.family == Family::kQ5) {
            const std::string key =
                UniformInt(rng, 0, 4) == 0
                    ? std::string("conf/vldb2001")
                    : std::string("conf/") + kVenues[UniformInt(rng, 0, 4)] +
                          std::to_string(UniformInt(rng, 1985, 2007)) + "/p";
            q.params["key"] = Value::String(key);
          } else if (q.family == Family::kQ6) {
            q.params["year"] =
                Value::String(std::to_string(UniformInt(rng, 1985, 2008)));
          }
          QueryOp(conn, q, ids[c][i], /*prepare=*/false, env, &logs[c]);
        }
      }
    });
  }
  *setup_done = Now();
  *cpu_at_start = CpuSeconds();
  go.count_down();
  for (auto& t : threads) t.join();
  log->wall_s = Now() - *setup_done;
  for (const auto& l : logs) log->Merge(l);
  return Status::OK();
}

/// churn: one client. Each round reloads one small document with new
/// content, re-creates the index set (a load resets it), then re-PREPAREs
/// and runs fixed texts over the reloaded document and untouched ones.
Status RunChurn(Env& env, DocVersions* docs, LayerStats* layers,
                OpLog* log) {
  const int rounds = Rounds(kChurnRoundsPerSecond, env.seconds);
  std::vector<std::string> reloads;
  for (int r = 0; r < rounds; ++r) {
    reloads.push_back(SmallDocText(Mix(env.seed, 1000 + r)));
  }
  // Reloaded documents follow a seeded order; every document takes turns.
  std::mt19937_64 rng(Mix(env.seed, 300));
  std::vector<int> targets;
  for (int r = 0; r < rounds; ++r) targets.push_back(r % kSmallDocs);
  std::shuffle(targets.begin(), targets.end(), rng);

  Conn conn(env.port, env.tracer, layers, kChurnStatementsPerConnection);
  // A mutation op: timed, with its own request span.
  auto mutation = [&](const std::string& what, auto&& fn) {
    ++log->attempted;
    ScopedSpan op(*env.tracer, "request", -1);
    const double start = Now();
    Status s = fn(op.id());
    log->Sample((Now() - start) * 1e3);
    if (!s.ok()) log->Fail(what, s);
    return s.ok();
  };
  const double t0 = Now();
  for (int r = 0; r < rounds; ++r) {
    const int d = targets[r];
    const std::string uri = SmallUri(d);
    const std::string other = SmallUri((d + 1) % kSmallDocs);
    XQJG_RETURN_NOT_OK(conn.EnsureStatementRoom());
    if (mutation("LOAD_DOC " + uri, [&](int parent) {
          return conn.Load(uri, reloads[r], parent);
        })) {
      (*docs)[uri].push_back(reloads[r]);
    }
    mutation("INDEX_DDL",
             [&](int parent) { return conn.CreateIndexes(parent); });
    // Three queries over the reloaded document, two over another small
    // one, three over the large untouched documents.
    auto query = [](Family f, std::string text, std::string doc, char cmp,
                    double bound) {
      QuerySpec q;
      q.family = f;
      q.text = std::move(text);
      q.doc = std::move(doc);
      q.cmp = cmp;
      q.bound = bound;
      return q;
    };
    const std::string prices = "//closed_auction/price/text()";
    const std::string bidders = "/descendant::open_auction[bidder]";
    std::vector<QuerySpec> queries = {
        query(Family::kQ4, prices, uri, '\0', 0),
        query(Family::kQ1, "doc(\"" + uri + "\")" + bidders, uri, '\0', 0),
        query(Family::kQ4, "//closed_auction[price > 50]/price/text()", uri,
              '>', 50),
        query(Family::kQ4, prices, other, '\0', 0),
        query(Family::kQ1, "doc(\"" + other + "\")" + bidders, other, '\0', 0),
        query(Family::kQ4, "//closed_auction[price > 500]/price/text()",
              kAuction, '>', 500),
        query(Family::kQ1, api::PaperQueries()[0].text, kAuction, '\0', 0),
        query(Family::kQ5, api::PaperQueries()[4].text, kDblp, '\0', 0),
    };
    for (QuerySpec& q : queries) {
      q.version = static_cast<int>((*docs)[q.doc].size()) - 1;
      QueryOp(conn, q, 0, /*prepare=*/true, env, log);
    }
  }
  log->wall_s = Now() - t0;
  return Status::OK();
}

// ---- Traced run: compile stages replayed from the benchmark ----

struct StageTotals {
  std::vector<double> parse_ms, normalize_ms, compile_ms, isolate_ms,
      extract_ms, plan_ms;
  int64_t rules_applied = 0;
  int64_t ops_isolated = 0;
  std::vector<double> qerrors;
  std::vector<std::string> problems;
};

/// Replays the compile stages of one text into `out`, each called and
/// timed in turn under a "replay" span. Returns the stage sum in seconds,
/// or a negative value when a stage failed where Prepare succeeded.
double ReplayOnce(const std::string& text, const std::string& doc,
                  bool has_plan, const engine::Database& db, Tracer& tracer,
                  StageTotals* out) {
  ScopedSpan replay(tracer, "replay", -1);
  auto failed = [&](const char* stage) {
    out->problems.push_back(std::string("replayed ") + stage +
                            " failed where Prepare succeeded: " + text);
    return -1.0;
  };
  double stages = 0.0;
  auto timed = [&](const char* name, std::vector<double>* sink, auto&& fn) {
    ScopedSpan span(tracer, name, replay.id());
    const double t0 = Now();
    auto result = fn();
    const double dt = Now() - t0;
    stages += dt;
    sink->push_back(dt * 1e3);
    return result;
  };
  auto ast = timed("xquery.parse", &out->parse_ms,
                   [&] { return xquery::Parse(text); });
  if (!ast.ok()) return failed("parse");
  xquery::NormalizeOptions nopts;
  nopts.context_document = doc;
  auto core = timed("xquery.normalize", &out->normalize_ms,
                    [&] { return xquery::Normalize(ast.value(), nopts); });
  if (!core.ok()) return failed("normalize");
  auto stacked = timed("compiler.compile", &out->compile_ms, [&] {
    return compiler::CompileQuery(core.value(), compiler::CompileOptions{});
  });
  if (!stacked.ok()) return failed("compile");
  auto iso = timed("opt.isolate", &out->isolate_ms,
                   [&] { return opt::Isolate(stacked.value()); });
  if (!iso.ok()) return failed("isolate");
  for (const auto& [rule, count] : iso.value().rule_counts) {
    out->rules_applied += count;
  }
  out->ops_isolated += static_cast<int64_t>(iso.value().ops_after);
  auto graph = timed("opt.extract", &out->extract_ms, [&] {
    return opt::ExtractJoinGraph(iso.value().isolated);
  });
  // Extraction fails exactly when Prepare fell back (Q2 today).
  if (graph.ok() != has_plan) return failed("extract");
  if (graph.ok()) {
    auto plan = timed("engine.plan", &out->plan_ms, [&] {
      return engine::PlanJoinGraph(graph.value(), db);
    });
    if (!plan.ok()) return failed("plan");
  }
  return stages;
}

/// For each distinct statement text: the program's own compile time from a
/// fresh Prepare (plan cache cleared first), then the replayed stages. The
/// stage sum must agree with compile_seconds.
void ReplayStages(api::XQueryProcessor& processor, const ResultLog& log,
                  Tracer& tracer, StageTotals* out) {
  // A Prepare and a replay are two timings taken moments apart, and this
  // host's speed shifts by up to 30% between them. A pair outside the
  // bound is measured again, and the fastest of each are compared.
  constexpr int kAttempts = 5;
  std::map<std::pair<std::string, std::string>, std::vector<int64_t>> texts;
  for (const auto& entry : log.entries()) {
    texts[{entry.spec.text, entry.spec.doc}].push_back(
        static_cast<int64_t>(entry.items.size()));
  }
  const auto db = processor.snapshot()->relational_db();
  double sum_stages = 0.0, sum_compile = 0.0;
  for (const auto& [key, actual_rows] : texts) {
    const auto& [text, doc] = key;
    api::PrepareOptions popts;
    popts.context_document = doc;
    double compile = HUGE_VAL, stages = HUGE_VAL;
    // Stated bound: the stage sum is within 35% (plus 2 ms) of the
    // program's own compile time for the same text. Prepare also emits SQL
    // and EXPLAIN text, which the replay does not.
    auto agree = [&] {
      return std::fabs(stages - compile) <= 0.35 * compile + 2e-3;
    };
    for (int attempt = 0; attempt < kAttempts && !agree(); ++attempt) {
      processor.ClearPlanCache();
      auto pq = processor.Prepare(text, popts);
      if (!pq.ok()) {
        out->problems.push_back("in-process Prepare failed: " + text);
        break;
      }
      const bool has_plan = pq.value()->has_plan;
      if (attempt == 0 && has_plan) {
        const double est = std::max(1.0, pq.value()->plan.root->est_rows);
        for (int64_t rows : actual_rows) {
          const double act = std::max<double>(1.0, static_cast<double>(rows));
          out->qerrors.push_back(std::max(est / act, act / est));
        }
      }
      // Only the first replay feeds the per-layer figures.
      StageTotals again;
      const double replayed = ReplayOnce(text, doc, has_plan, *db, tracer,
                                         attempt == 0 ? out : &again);
      if (replayed < 0) {
        for (auto& p : again.problems) out->problems.push_back(std::move(p));
        break;
      }
      compile = std::min(compile, pq.value()->compile_seconds);
      stages = std::min(stages, replayed);
    }
    if (compile == HUGE_VAL || stages == HUGE_VAL) continue;
    sum_stages += stages;
    sum_compile += compile;
    if (!agree()) {
      out->problems.push_back("stage sum " + Num(stages * 1e3) +
                              " ms vs compile_seconds " +
                              Num(compile * 1e3) + " ms: " + text);
    }
  }
  std::fprintf(stderr,
               "stage replay: %zu statements, stage sum %.1f ms vs "
               "compile_seconds %.1f ms\n",
               texts.size(), sum_stages * 1e3, sum_compile * 1e3);
}

/// Reads an integer that follows `"name":` after `anchor` in a JSON text.
int64_t JsonInt(const std::string& json, const std::string& anchor,
                const std::string& name) {
  size_t at = json.find("\"" + anchor + "\"");
  if (at == std::string::npos) return -1;
  at = json.find("\"" + name + "\":", at);
  if (at == std::string::npos) return -1;
  return std::strtoll(json.c_str() + at + name.size() + 3, nullptr, 10);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// The corpus is one fixed instance unless asked otherwise, as XMark's
  /// is in the paper: --seed varies the operations, not the documents.
  uint64_t corpus_seed = kDefaultCorpusSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--corpus-seed") {
      args->corpus_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-file") {
      args->trace_file = value;
    } else {
      return false;
    }
  }
  if (argc % 2 != 1) return false;
  return (args->workload == "adhoc" || args->workload == "serve" ||
          args->workload == "churn") &&
         args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  const double process_start = Now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: wirebench --workload adhoc|serve|churn --seed N "
                 "--seconds S --trace 0|1 [--corpus-seed N] "
                 "[--trace-file PATH]\n");
    return 2;
  }
  // With one client, requests never allocate at the same time, so one
  // malloc arena costs no contention. With glibc's default, each new server
  // connection thread lands in an arena by chance, and churn's peak RSS for
  // the same work read 405-504 MB over five runs, against 311 MB with one
  // arena (README.md, "Memory allocator"). serve keeps the default: its
  // concurrent requests would queue on the one arena's lock.
  if (args.workload != "serve") mallopt(M_ARENA_MAX, 1);
  auto fail = [](const char* stage, const Status& s) {
    std::fprintf(stderr, "wirebench: %s: %s\n", stage, s.ToString().c_str());
    return 1;
  };

  // ---- Set-up: generation, server start, load, index build, warm-up ----
  Corpus corpus = MakeCorpus(args.corpus_seed);
  for (const auto& [uri, versions] : corpus.docs) {
    std::fprintf(stderr, "corpus: %s %zu bytes\n", uri.c_str(),
                 versions[0].size());
  }
  DocVersions docs = corpus.docs;
  api::XQueryProcessor processor;
  server::ServerConfig config;
  // Patience above the worst possible wait: nothing is shed.
  config.admission.heavy_slots = ServeClients();
  config.admission.cheap_queue = 64;
  config.admission.heavy_queue = 64;
  config.admission.max_queue_wait_seconds = 600.0;
  server::QueryServer server(&processor, config);
  if (Status s = server.Start(); !s.ok()) return fail("server start", s);

  Tracer tracer(args.trace);
  ResultLog results;
  Env env;
  env.port = server.port();
  env.seed = args.seed;
  env.seconds = args.seconds;
  env.people = corpus.people;
  env.tracer = &tracer;
  env.results = &results;

  LayerStats admin_layers;
  Conn admin(env.port, &tracer, &admin_layers);
  if (Status s = admin.Open(); !s.ok()) return fail("connect", s);
  for (const auto& [uri, versions] : corpus.docs) {
    if (Status s = admin.Load(uri, versions[0], -1); !s.ok()) {
      return fail("load", s);
    }
  }
  if (Status s = admin.CreateIndexes(-1); !s.ok()) return fail("index", s);
  // Warm-up: one statement over every document touches the lazy builds and
  // the serializer. Its results are checked like all others.
  for (const auto& [uri, versions] : corpus.docs) {
    QuerySpec q;
    q.family = Family::kQ4;
    q.doc = uri;
    q.text = "//closed_auction/price/text()";
    OpLog warm;
    QueryOp(admin, q, 0, /*prepare=*/true, env, &warm);
    if (warm.failed) {
      std::fprintf(stderr, "warm-up: %s\n", warm.errors[0].c_str());
      return 1;
    }
  }

  // ---- Timed phase ----
  const api::PlanCache::Stats cache_before = processor.plan_cache_stats();
  LayerStats layers;
  std::vector<LayerStats> serve_layers;
  OpLog log;
  double setup_done = Now();
  double cpu_before = CpuSeconds();
  Status run;
  if (args.workload == "adhoc") {
    run = RunAdhoc(env, &layers, &log);
  } else if (args.workload == "serve") {
    // Its clients connect and prepare first: set-up ends when they have.
    run = RunServe(env, &serve_layers, &log, &setup_done, &cpu_before);
  } else {
    run = RunChurn(env, &docs, &layers, &log);
  }
  if (!run.ok()) return fail("workload", run);
  const double cpu_s = CpuSeconds() - cpu_before;
  const double peak_rss_mb = PeakRssMb();
  const api::PlanCache::Stats cache_after = processor.plan_cache_stats();
  for (const auto& l : serve_layers) layers.Merge(l);
  layers.Merge(admin_layers);
  const double setup_s = setup_done - process_start;

  // ---- After the timed phase: server counters, then shutdown ----
  std::vector<std::string> problems;
  auto stats_json = admin.client().ServerStats();
  if (!stats_json.ok()) return fail("STATS", stats_json.status());
  admin.Close();
  const int64_t admitted = JsonInt(stats_json.value(), "cheap", "admitted") +
                           JsonInt(stats_json.value(), "heavy", "admitted");
  const int64_t shed = JsonInt(stats_json.value(), "cheap", "shed") +
                       JsonInt(stats_json.value(), "heavy", "shed");
  const int64_t heavy = JsonInt(stats_json.value(), "heavy", "admitted");
  if (admitted != layers.executes || shed != 0) {
    problems.push_back("STATS admitted " + std::to_string(admitted) +
                       " shed " + std::to_string(shed) + " vs " +
                       std::to_string(layers.executes) + " EXECUTEs sent");
  }
  server.Stop();
  const server::ServerStats gauges = server.stats();
  if (gauges.sessions.open != 0 || gauges.sessions.open_cursors != 0 ||
      gauges.sessions.retained_cursor_bytes != 0) {
    problems.push_back("server gauges after Stop: sessions " +
                       std::to_string(gauges.sessions.open) + ", cursors " +
                       std::to_string(gauges.sessions.open_cursors) +
                       ", retained bytes " +
                       std::to_string(gauges.sessions.retained_cursor_bytes));
  }
  const double retained_mb =
      static_cast<double>(processor.snapshot()->RetainedStorageBytes()) / 1e6;

  StageTotals stages;
  if (args.trace) {
    ReplayStages(processor, results, tracer, &stages);
    for (const auto& p : stages.problems) problems.push_back(p);
  }
  for (const auto& p : CheckResults(results, docs)) problems.push_back(p);
  for (const auto& e : log.errors) {
    std::fprintf(stderr, "failed: %s\n", e.c_str());
  }
  for (const auto& p : problems) {
    std::fprintf(stderr, "check: %s\n", p.c_str());
  }

  double percentile = 0.0;
  const double tail_ms = Tail(log.latency_ms, &percentile);
  std::fprintf(
      stderr,
      "%s seed %llu corpus-seed %llu: %lld ops (%lld failed) in %.3f s, "
      "setup %.3f s, tail = p%.2f of %zu samples, %zu result keys, "
      "validate_plans %s\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(args.corpus_seed),
      static_cast<long long>(log.attempted),
      static_cast<long long>(log.failed), log.wall_s, setup_s, percentile,
      log.latency_ms.size(), results.entries().size(),
      api::ResolveValidatePlans(api::ValidatePlans::kAuto) ? "on" : "off");

  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", {setup_s, "s"}},
        {"throughput_ops_s",
         {static_cast<double>(log.attempted) / log.wall_s, "ops/s"}},
        {"latency_p50_ms", {Median(log.latency_ms), "ms"}},
        {"latency_tail_ms", {tail_ms, "ms"}},
        {"peak_rss_mb", {peak_rss_mb, "MB"}},
        {"retained_storage_mb", {retained_mb, "MB"}},
    };
  } else {
    double log_q = 0.0;
    for (double q : stages.qerrors) log_q += std::log(q);
    const double qerror =
        stages.qerrors.empty()
            ? 1.0
            : std::exp(log_q / static_cast<double>(stages.qerrors.size()));
    metrics = {
        {"xquery.parse_ms", {Mean(stages.parse_ms), "ms"}},
        {"xquery.normalize_ms", {Mean(stages.normalize_ms), "ms"}},
        {"compiler.compile_ms", {Mean(stages.compile_ms), "ms"}},
        {"opt.isolate_ms", {Mean(stages.isolate_ms), "ms"}},
        {"opt.extract_ms", {Mean(stages.extract_ms), "ms"}},
        {"engine.plan_ms", {Mean(stages.plan_ms), "ms"}},
        {"api.prepare_ms", {Mean(layers.prepare_ms), "ms"}},
        {"opt.rules_applied",
         {static_cast<double>(stages.rules_applied), "count"}},
        {"opt.ops_isolated",
         {static_cast<double>(stages.ops_isolated), "count"}},
        {"opt.fallback_statements",
         {static_cast<double>(layers.fallback_prepares), "count"}},
        {"engine.est_rows_qerror", {qerror, "ratio"}},
        {"server.execute_ms", {Mean(layers.execute_ms), "ms"}},
        {"server.wait_ms", {Mean(layers.wait_ms), "ms"}},
        {"server.fetch_ms", {Mean(layers.fetch_ms), "ms"}},
        {"server.heavy_requests", {static_cast<double>(heavy), "count"}},
        {"xml.load_ms", {Mean(layers.load_ms), "ms"}},
        {"engine.index_build_ms", {Mean(layers.index_ms), "ms"}},
        {"api.plan_cache_hits",
         {static_cast<double>(cache_after.hits - cache_before.hits), "count"}},
        {"api.plan_cache_misses",
         {static_cast<double>(cache_after.misses - cache_before.misses),
          "count"}},
        {"api.plan_cache_invalidations",
         {static_cast<double>(cache_after.invalidations -
                              cache_before.invalidations),
          "count"}},
        {"process.cpu_s", {cpu_s, "s"}},
    };
    std::string path = args.trace_file;
    if (path.empty()) {
      path = ".bench_out/trace-" + args.workload + "-" +
             std::to_string(args.seed) + ".json";
    }
    if (!tracer.Write(path)) {
      std::fprintf(stderr, "wirebench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %zu spans written to %s\n", tracer.size(),
                 path.c_str());
  }

  std::string out = "{\"correct\": ";
  out += problems.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(log.attempted);
  out += ", \"failed\": " + std::to_string(log.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].first + "\": {\"value\": " +
           Num(metrics[i].second.first) + ", \"unit\": \"" +
           metrics[i].second.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

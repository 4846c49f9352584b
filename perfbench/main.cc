// The mediator benchmark: one workload, generated from a seed, driven
// through the library's public API the way an embedding mediator drives
// it.
//
//   write path  parser::ParseBurst -> maint::ApplyBatch, with a
//               durability::DurableLog on PosixFs (SyncPolicy::kEveryBatch)
//               and a SnapshotStore attached
//   read path   SnapshotStore::Pin -> query::Ask / query::QueryPred, open
//               loop on its own thread
//   restart     durability::DurableLog::Recover on the state directory the
//               run left behind
//
// Every read is checked against the generator's model of the pinned
// epoch, the recovered view against the live one, and the live view
// against a from-scratch Materialize of the final fact set. Any failure
// makes the run incorrect and the exit code non-zero.
//
// Usage:
//   mediator_bench --workload <ingest|serve|closure> --seed <n>
//                  --seconds <s> --trace <0|1> --work-dir <dir>
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the run measures an
// untraced phase and then a traced phase of --seconds each, and the
// metrics are the per-layer ones from the traced phase.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "constraint/canonical.h"
#include "core/fixpoint.h"
#include "core/snapshot.h"
#include "domain/registry.h"
#include "durability/durable_log.h"
#include "durability/fs.h"
#include "maintenance/batch.h"
#include "parser/parser.h"
#include "parser/view_io.h"
#include "perfbench/trace.h"
#include "perfbench/workloads.h"
#include "query/query.h"
#include "relational/catalog.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using mmv::Result;
using mmv::Status;
using mmv::durability::DurabilityOptions;
using mmv::durability::DurableLog;

// ---- inputs and environment -------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return false;
    flags[argv[i] + 2] = argv[i + 1];
  }
  if ((argc - 1) % 2 != 0 || flags.size() != 5) return false;
  for (const char* key : {"workload", "seed", "seconds", "trace", "work-dir"}) {
    if (flags.count(key) == 0) return false;
  }
  char* end = nullptr;
  args->workload = flags["workload"];
  args->seed = std::strtoull(flags["seed"].c_str(), &end, 10);
  if (*end != '\0') return false;
  args->seconds = std::strtod(flags["seconds"].c_str(), &end);
  if (*end != '\0' || !(args->seconds > 0)) return false;
  if (flags["trace"] != "0" && flags["trace"] != "1") return false;
  args->trace = flags["trace"] == "1";
  args->work_dir = flags["work-dir"];
  return true;
}

// The benchmark measures the default engine only. The library reads these
// variables in its *FromEnv helpers and the repository's own suites use
// them to select oracle modes; a stray one in the environment must not be
// measured by accident.
bool RefuseOracleModes() {
  bool refused = false;
  for (const char* var : {"MMV_JOIN_MODE", "MMV_PLAN_MODE",
                          "MMV_SOLVER_FASTPATH", "MMV_THREADS"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "mediator_bench: refusing to run with %s set; the "
                   "benchmark measures the default engine only\n",
                   var);
      refused = true;
    }
  }
  return refused;
}

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  std::string one, five, fifteen;
  if (!(in >> one >> five >> fifteen)) return "unavailable";
  return one + " " + five + " " + fifteen;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

// ---- CPU placement ----------------------------------------------------------
//
// On a shared virtual machine each vCPU's speed changes from second to
// second (a busy hyperthread sibling on the host costs it up to 40%), so a
// thread left where the scheduler put it measures that one CPU's luck and
// runs of the same code spread by 20% or more. The benchmark's threads
// therefore visit every allowed CPU in turn, a fixed slice of time on
// each, so each run sees the machine's average CPU.

constexpr int64_t kCpuSliceNs = 1'000'000'000;

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

// Lets the calling thread run on exactly \p cpus.
void RunOn(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// Pins the calling thread to cpus[k mod size].
void MoveToCpu(const std::vector<int>& cpus, uint64_t k) {
  if (!cpus.empty()) RunOn({cpus[k % cpus.size()]});
}

// Moves its thread to the next CPU whenever a new slice has begun; threads
// with different offsets never share a CPU when there are enough of them.
class CpuRotation {
 public:
  CpuRotation(const std::vector<int>& cpus, SteadyClock::time_point start,
              uint64_t offset)
      : cpus_(cpus), start_(start), offset_(offset) {}

  void Tick() {
    int64_t slice = NanosBetween(start_, SteadyClock::now()) / kCpuSliceNs;
    if (slice == slice_) return;
    slice_ = slice;
    MoveToCpu(cpus_, static_cast<uint64_t>(slice) + offset_);
  }

 private:
  const std::vector<int>& cpus_;
  SteadyClock::time_point start_;
  uint64_t offset_;
  int64_t slice_ = -1;
};

double Seconds(SteadyClock::time_point a, SteadyClock::time_point b) {
  return NanosBetween(a, b) / 1e9;
}

// Waits until \p due: sleeps until shortly before it, then spins. A
// sleeping vCPU can take a millisecond to wake on a virtual machine; that
// lateness belongs to the load generator, not to the system it drives.
void WaitUntil(SteadyClock::time_point due) {
  constexpr std::chrono::microseconds kSpin(1500);
  if (SteadyClock::now() + kSpin < due) {
    std::this_thread::sleep_until(due - kSpin);
  }
  while (SteadyClock::now() < due) {
  }
}

// ---- summary statistics -----------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Of repeated timings of one operation. The mean, not the median: each
// repeat runs on another CPU, and when some are slow and some fast at the
// moment the median jumps between the two speeds while the mean moves
// smoothly.
double Mean(const std::vector<double>& v) {
  return v.empty() ? 0 : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

// The tail of a latency sample: the highest percentile, at most
// \p cap_pct, that has at least ten samples beyond it (nearest rank; with
// fewer than eleven samples, the maximum). The cap keeps the tail off the
// operations that a shared virtual machine slows two- to fifty-fold,
// whose share of a run (up to a quarter of the reads) varies too much
// from run to run to measure the program by. Bursts are capped at the
// 95th percentile, which the checkpoint stalls (12-50% of the bursts)
// still lie beyond; reads at the 75th.
struct Tail {
  double value = 0;
  double percentile = 100;
  size_t beyond = 0;
  size_t samples = 0;
};

constexpr size_t kBurstTailCap = 95;
constexpr size_t kReadTailCap = 75;

Tail TailOf(std::vector<double> v, size_t cap_pct) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  size_t rank = n;  // 1-based
  if (n > 10) {
    const size_t capped = (cap_pct * n + 99) / 100;  // ceil(cap_pct% of n)
    rank = std::min(n - 10, capped);
  }
  t.value = v[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  t.beyond = n - rank;
  return t;
}

// Set-ups and recoveries per run: setup_s is the median of the set-ups,
// recover_s the mean of the recoveries (a traced run recovers once).
constexpr int kSetUps = 8;
constexpr int kRecoveries = 8;

// ---- the mediator under test ------------------------------------------------

struct World {
  std::unique_ptr<mmv::rel::Catalog> catalog;
  std::unique_ptr<mmv::dom::DomainManager> domains;

  static Result<World> Make() {
    World w;
    w.catalog = std::make_unique<mmv::rel::Catalog>();
    w.domains = std::make_unique<mmv::dom::DomainManager>(&w.catalog->clock());
    Result<mmv::dom::StandardDomains> registered =
        mmv::dom::RegisterStandardDomains(w.domains.get(), w.catalog.get());
    if (!registered.ok()) return registered.status();
    return w;
  }
};

struct Mediator {
  World world;
  mmv::Program program;
  mmv::View view;
  mmv::SnapshotStore snapshots;
  std::unique_ptr<DurableLog> log;
};

// Parse + Materialize + first publication + DurableLog::Create on a fresh
// state directory: what a mediator does before it can take its first
// burst.
Status SetUp(const std::string& program_text, const std::string& dir,
             mmv::durability::Fs* fs, const mmv::FixpointOptions& options,
             const DurabilityOptions& durability, Mediator* m) {
  MMV_ASSIGN_OR_RETURN(m->world, World::Make());
  MMV_ASSIGN_OR_RETURN(m->program, mmv::parser::ParseProgram(program_text));
  MMV_ASSIGN_OR_RETURN(m->view, mmv::Materialize(m->program,
                                                  m->world.domains.get(),
                                                  options));
  m->snapshots.Publish(m->view);
  MMV_ASSIGN_OR_RETURN(
      m->log, DurableLog::Create(fs, dir, m->program, m->view,
                                 m->snapshots.epoch(), /*ext_counter=*/0,
                                 durability));
  return Status::OK();
}

Result<std::vector<mmv::maint::Update>> ParseUpdates(const std::string& text,
                                                     mmv::Program* program) {
  MMV_ASSIGN_OR_RETURN(std::vector<mmv::parser::ParsedUpdate> parsed,
                       mmv::parser::ParseBurst(text, program));
  std::vector<mmv::maint::Update> updates;
  updates.reserve(parsed.size());
  for (mmv::parser::ParsedUpdate& u : parsed) {
    mmv::maint::UpdateAtom atom{std::move(u.atom.pred), std::move(u.atom.args),
                                std::move(u.atom.constraint)};
    updates.push_back(u.is_delete
                          ? mmv::maint::Update::Delete(std::move(atom))
                          : mmv::maint::Update::Insert(std::move(atom)));
  }
  return updates;
}

// Variable-renaming-insensitive state of a view: the multiset of
// (canonical atom, support, depth). Recovery re-numbers fresh variables,
// so raw serializations of a correct recovery may differ.
std::multiset<std::string> CanonicalState(const mmv::View& view) {
  std::multiset<std::string> out;
  for (const mmv::ViewAtom& a : view.atoms()) {
    out.insert(mmv::CanonicalAtomString(a.pred, a.args, a.constraint) +
               " @ " + a.support.ToString() + " # " +
               std::to_string(a.depth));
  }
  return out;
}

// ---- one measured phase -----------------------------------------------------

struct Phase {
  std::vector<double> burst_ms;
  std::vector<double> read_ms;  // +inf for a failed read
  std::vector<double> read_lag_ms;
  int64_t bursts = 0;
  int64_t burst_failures = 0;
  int64_t updates = 0;
  double writer_s = 0;
  int64_t reads = 0;
  int64_t read_failures = 0;
  int64_t atoms_scanned = 0;
  int64_t results = 0;
  int64_t disk_bytes = 0;
  mmv::maint::BatchStats stats;
  std::string first_error;
};

struct PhaseSetup {
  Workload* workload = nullptr;
  Mediator* mediator = nullptr;
  mmv::FixpointOptions options;
  MeteredFs* fs = nullptr;
  double seconds = 0;
  uint64_t cycle = 0;      // committed-burst period of the checkpoint chain
  bool align_end = false;  // run on until the cycle position is reached
  uint64_t seed = 0;
  std::vector<int> cpus;
  Tracer* tracer = nullptr;
  CountingEvaluator* counted = nullptr;  // traced phase only
  TracedBurstLog* traced_log = nullptr;  // traced phase only
};

// One read against a pinned epoch: each of the query's predicates is
// asked for the same values. Returns false, with \p error set, on a
// non-ok status or an answer the generator's model refutes.
bool ReadOnce(const PhaseSetup& p, mmv::DcaEvaluator* evaluator,
              mmv::Rng* rng, SteadyClock::time_point* answered,
              Phase* out, std::string* error) {
  mmv::SnapshotHandle pinned;
  {
    Span pin(p.tracer, "snapshot.pin");
    pinned = p.mediator->snapshots.Pin();
  }
  // Epoch 1 is the materialized view; each burst publishes one more.
  const ReadQuery q = p.workload->MakeRead(pinned->epoch - 1, rng);
  for (const std::string& name : q.preds) {
    const mmv::Symbol pred(name);
    int64_t found = -1;
    {
      Span ask(p.tracer, "query.ask");
      if (q.use_query_pred) {
        mmv::TermVec pattern;
        for (const mmv::Value& v : q.values) {
          pattern.push_back(mmv::Term::Const(v));
        }
        Result<mmv::query::InstanceSet> r =
            mmv::query::QueryPred(pinned, pred, pattern, evaluator);
        if (!r.ok()) {
          *error = r.status().ToString();
        } else if (r->complete) {
          found = static_cast<int64_t>(r->instances.size());
        }
      } else {
        Result<bool> r = mmv::query::Ask(pinned, pred, q.values, evaluator);
        if (r.ok()) {
          found = *r ? 1 : 0;
        } else {
          *error = r.status().ToString();
        }
      }
    }
    if (found >= 0) {
      out->atoms_scanned +=
          static_cast<int64_t>(pinned->image->AtomsFor(pred).size());
      out->results += found;
    }
    if (found != (q.expect ? 1 : 0) && error->empty()) {
      *error = "wrong answer for " + name + " at epoch " +
               std::to_string(pinned->epoch);
    }
    if (!error->empty()) break;
  }
  // The answer is out; dropping the pin (which may free an epoch the
  // writer has since replaced) is the reader's cost, not the query's.
  *answered = SteadyClock::now();
  return error->empty();
}

// The open-loop reader: query i is due at start + i / rate whatever the
// previous one did, and its latency runs from that due time.
void ReadLoop(const PhaseSetup& p, SteadyClock::time_point start,
              const std::atomic<bool>* stop, Phase* out) {
  // The reader's own evaluator, as a separate client process would have.
  Result<World> world = World::Make();
  if (!world.ok()) {
    out->reads += 1;
    out->read_failures += 1;
    out->first_error = world.status().ToString();
    return;
  }
  mmv::Rng rng(p.seed * 0x9E3779B97F4A7C15ull + 1);
  const double rate = p.workload->shape().read_rate_hz;
  // Beside a parallel engine the reader is left to the scheduler, which
  // wakes it on an idle CPU; pinned, it would time-share with whichever
  // engine worker the scheduler had put on its CPU.
  const bool rotate = p.workload->shape().engine_threads == 1;
  if (!rotate) RunOn(p.cpus);
  CpuRotation rotation(p.cpus, start, std::max<size_t>(1, p.cpus.size() / 2));
  if (p.tracer != nullptr) p.tracer->ThisThread("reader");
  for (uint64_t i = 0;; ++i) {
    const SteadyClock::time_point due =
        start + std::chrono::nanoseconds(static_cast<int64_t>(i * 1e9 / rate));
    WaitUntil(due);
    if (stop->load()) break;
    if (rotate) rotation.Tick();
    const SteadyClock::time_point begin = SteadyClock::now();
    SteadyClock::time_point answered;
    std::string error;
    bool ok;
    {
      Span read(p.tracer, "harness.read", i + 1);
      ok = ReadOnce(p, world->domains.get(), &rng, &answered, out, &error);
    }
    out->reads += 1;
    out->read_lag_ms.push_back(NanosBetween(due, begin) / 1e6);
    if (ok) {
      out->read_ms.push_back(NanosBetween(due, answered) / 1e6);
    } else {
      // A failed read misses any latency limit.
      out->read_failures += 1;
      out->read_ms.push_back(std::numeric_limits<double>::infinity());
      if (out->first_error.empty()) out->first_error = error;
    }
  }
}

// Runs the writer on the calling thread and the reader beside it.
// \p committed counts bursts committed since DurableLog::Create across
// phases; the end-of-run alignment reads it.
Phase RunPhase(const PhaseSetup& p, uint64_t* committed) {
  Phase out;
  Phase reads;
  Mediator& m = *p.mediator;
  const WorkloadShape& shape = p.workload->shape();
  mmv::DcaEvaluator* evaluator = m.world.domains.get();
  if (p.counted != nullptr) evaluator = p.counted;
  mmv::maint::BurstLog* hook = m.log.get();
  if (p.traced_log != nullptr) hook = p.traced_log;
  const int64_t bytes_before = p.fs->bytes_written();
  if (p.tracer != nullptr) p.tracer->ThisThread("writer");

  std::atomic<bool> stop{false};
  const SteadyClock::time_point start = SteadyClock::now();
  const SteadyClock::time_point deadline =
      start + std::chrono::nanoseconds(static_cast<int64_t>(p.seconds * 1e9));
  std::thread reader(ReadLoop, std::cref(p), start, &stop, &reads);
  CpuRotation rotation(p.cpus, start, 0);

  SteadyClock::time_point last_end = start;
  for (uint64_t b = 0;; ++b) {
    const bool paced = shape.burst_interval_s > 0;
    SteadyClock::time_point due =
        paced ? start + std::chrono::nanoseconds(static_cast<int64_t>(
                            b * shape.burst_interval_s * 1e9))
              : SteadyClock::now();
    if (due >= deadline &&
        (!p.align_end || *committed % p.cycle == shape.end_position)) {
      break;
    }
    std::string text = p.workload->NextBurst();
    rotation.Tick();
    if (paced) {
      WaitUntil(due);
    } else {
      due = SteadyClock::now();
    }
    Status status;
    mmv::maint::BatchStats stats;
    size_t updates = 0;
    {
      Span burst(p.tracer, "harness.burst", b + 1);
      Result<std::vector<mmv::maint::Update>> parsed = [&] {
        Span parse(p.tracer, "parser.parse_burst");
        return ParseUpdates(text, &m.program);
      }();
      if (parsed.ok()) {
        updates = parsed->size();
        Span apply(p.tracer, "maintenance.apply_batch");
        status = mmv::maint::ApplyBatch(m.program, &m.view, *parsed, evaluator,
                                        p.options, &stats,
                                        m.log->ext_counter(), &m.snapshots,
                                        hook);
      } else {
        status = parsed.status();
      }
    }
    last_end = SteadyClock::now();
    out.bursts += 1;
    if (!status.ok()) {
      // A failed batch leaves the live view partially maintained and may
      // poison the log: the run is incorrect and ends here.
      out.burst_failures += 1;
      out.first_error = "burst " + std::to_string(b + 1) + ": " +
                        status.ToString();
      break;
    }
    out.burst_ms.push_back(NanosBetween(due, last_end) / 1e6);
    out.updates += static_cast<int64_t>(updates);
    out.stats += stats;
    *committed += 1;
  }
  out.writer_s = Seconds(start, last_end);
  out.disk_bytes = p.fs->bytes_written() - bytes_before;
  stop.store(true);
  reader.join();

  out.read_ms = std::move(reads.read_ms);
  out.read_lag_ms = std::move(reads.read_lag_ms);
  out.reads = reads.reads;
  out.read_failures = reads.read_failures;
  out.atoms_scanned = reads.atoms_scanned;
  out.results = reads.results;
  if (out.first_error.empty()) out.first_error = reads.first_error;
  return out;
}

// ---- reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-40s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    // JSON has no infinity or NaN; such a value only arises from a failed
    // operation, which already makes the run incorrect.
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1;
    std::snprintf(value, sizeof(value), "%.17g", v);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

int Run(const Args& args) {
  const int nproc = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.seed, nproc);
  if (workload == nullptr) {
    std::fprintf(stderr, "mediator_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const WorkloadShape& shape = workload->shape();

  mmv::FixpointOptions options;
  options.num_threads = shape.engine_threads;
  DurabilityOptions durability;
  durability.sync = mmv::durability::SyncPolicy::kEveryBatch;
  durability.checkpoint_every_records = shape.checkpoint_every;
  const uint64_t cycle =
      shape.checkpoint_every * durability.full_checkpoint_interval;

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              workload->name().c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf(
      "env build_type %s nproc %d loadavg %s engine_threads %d flush "
      "kEveryBatch checkpoint_every %llu full_interval %llu\n",
      PERFBENCH_BUILD_TYPE, nproc, LoadAverage().c_str(),
      shape.engine_threads,
      static_cast<unsigned long long>(shape.checkpoint_every),
      static_cast<unsigned long long>(durability.full_checkpoint_interval));

  const std::string run_dir = args.work_dir + "/" + workload->name() + "-" +
                              std::to_string(args.seed) + "-" +
                              std::to_string(::getpid());
  std::error_code ec;
  fs::remove_all(run_dir, ec);
  fs::create_directories(run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "mediator_bench: cannot create %s: %s\n",
                 run_dir.c_str(), ec.message().c_str());
    return 2;
  }

  mmv::durability::PosixFs posix;
  MeteredFs metered(&posix);
  const std::string initial_program = workload->ProgramText();

  // Set up several times and keep the last; setup_s is the median.
  std::vector<double> setup_s;
  std::unique_ptr<Mediator> mediator;
  std::string state_dir;
  const std::vector<int> cpus = AllowedCpus();
  for (int i = 0; i < kSetUps; ++i) {
    // The first parallel Materialize creates the engine's worker pool, and
    // new threads inherit their creator's CPU mask: the first set-up runs
    // unpinned so the workers may use every CPU.
    if (i > 0) MoveToCpu(cpus, static_cast<uint64_t>(i));
    mediator.reset();
    if (!state_dir.empty()) fs::remove_all(state_dir, ec);
    state_dir = run_dir + "/state" + std::to_string(i);
    auto m = std::make_unique<Mediator>();
    SteadyClock::time_point t0 = SteadyClock::now();
    Status s = SetUp(initial_program, state_dir, &metered, options,
                     durability, m.get());
    setup_s.push_back(Seconds(t0, SteadyClock::now()));
    if (!s.ok()) {
      std::fprintf(stderr, "mediator_bench: set-up failed: %s\n",
                   s.ToString().c_str());
      fs::remove_all(run_dir, ec);
      return 1;
    }
    mediator = std::move(m);
  }
  std::printf("setup view_atoms %zu program_clauses %zu\n",
              mediator->view.size(), mediator->program.clauses().size());

  PhaseSetup p;
  p.workload = workload.get();
  p.mediator = mediator.get();
  p.options = options;
  p.fs = &metered;
  p.seconds = args.seconds;
  p.cycle = cycle;
  p.seed = args.seed;
  p.cpus = cpus;
  uint64_t committed = 0;

  p.align_end = !args.trace;
  Phase plain = RunPhase(p, &committed);
  Phase traced;
  Tracer tracer;
  std::unique_ptr<CountingEvaluator> counted;
  std::unique_ptr<TracedBurstLog> traced_log;
  if (args.trace && plain.burst_failures == 0) {
    counted = std::make_unique<CountingEvaluator>(
        mediator->world.domains.get());
    traced_log = std::make_unique<TracedBurstLog>(mediator->log.get(), &tracer);
    p.tracer = &tracer;
    p.counted = counted.get();
    p.traced_log = traced_log.get();
    p.align_end = true;
    metered.set_tracer(&tracer);
    traced = RunPhase(p, &committed);
    metered.set_tracer(nullptr);
  }
  const Phase& measured = args.trace ? traced : plain;

  int64_t attempted = plain.bursts + plain.reads + traced.bursts + traced.reads;
  int64_t failed = plain.burst_failures + plain.read_failures +
                   traced.burst_failures + traced.read_failures;
  std::string first_error =
      !plain.first_error.empty() ? plain.first_error : traced.first_error;
  auto check = [&](bool ok, const std::string& what) {
    attempted += 1;
    if (!ok) {
      failed += 1;
      if (first_error.empty()) first_error = what;
    }
  };

  // ---- restart: recover the state directory, compare with the live view
  const bool writer_ok =
      plain.burst_failures == 0 && traced.burst_failures == 0;
  const std::multiset<std::string> live_state = CanonicalState(mediator->view);
  const uint64_t live_epoch = mediator->snapshots.epoch();
  const uint64_t log_epoch = mediator->log->epoch();
  // The process "stops": the state directory is all that is left.
  mediator->log.reset();

  std::vector<double> recover_s;
  mmv::durability::RecoveryInfo info;
  const int recoveries = args.trace ? 1 : kRecoveries;
  if (args.trace) metered.set_tracer(&tracer);
  for (int i = 0; i < recoveries && writer_ok; ++i) {
    MoveToCpu(cpus, static_cast<uint64_t>(i));
    Result<World> world = World::Make();
    Result<mmv::Program> program = mmv::parser::ParseProgram(initial_program);
    if (!world.ok() || !program.ok()) {
      check(false, "recovery set-up failed");
      break;
    }
    mmv::SnapshotStore snapshots;
    mmv::durability::RecoveryInfo this_info;
    SteadyClock::time_point t0 = SteadyClock::now();
    Result<std::unique_ptr<DurableLog>> recovered = DurableLog::Recover(
        &metered, state_dir, &*program, world->domains.get(), options,
        &snapshots, &this_info, durability);
    recover_s.push_back(Seconds(t0, SteadyClock::now()));
    if (!recovered.ok()) {
      check(false, "recovery failed: " + recovered.status().ToString());
      break;
    }
    if (i == 0) {
      info = this_info;
      check(CanonicalState((*recovered)->TakeRecoveredView()) == live_state,
            "recovered view differs from the live view");
      check(this_info.recovered_epoch == log_epoch &&
                snapshots.epoch() == live_epoch,
            "recovered epoch differs from the live epoch");
    }
  }
  metered.set_tracer(nullptr);

  // ---- declarative oracle: the live view against a from-scratch
  // materialization of the final fact set
  if (writer_ok) {
    mmv::dom::DomainManager* eval = mediator->world.domains.get();
    Result<mmv::Program> final_program =
        mmv::parser::ParseProgram(workload->ProgramText());
    bool same = false;
    if (final_program.ok()) {
      Result<mmv::View> fresh = mmv::Materialize(*final_program, eval, options);
      Result<mmv::query::InstanceSet> want =
          fresh.ok() ? mmv::query::EnumerateView(*fresh, eval)
                     : Result<mmv::query::InstanceSet>(fresh.status());
      Result<mmv::query::InstanceSet> got =
          mmv::query::EnumerateView(mediator->view, eval);
      same = want.ok() && got.ok() && want->complete && got->complete &&
             want->instances == got->instances;
    }
    check(same, "live view differs from a from-scratch Materialize");
  }

  const bool correct = failed == 0;
  std::printf(
      "run bursts %lld updates %lld reads %lld committed %llu live_epoch "
      "%llu view_atoms %zu replayed %lld deltas_composed %lld\n",
      static_cast<long long>(measured.bursts),
      static_cast<long long>(measured.updates),
      static_cast<long long>(measured.reads),
      static_cast<unsigned long long>(committed),
      static_cast<unsigned long long>(live_epoch), mediator->view.size(),
      static_cast<long long>(info.replayed_bursts),
      static_cast<long long>(info.delta_checkpoints_composed));
  std::printf("failed_frac %.6g (%lld of %lld operations)\n",
              Ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              static_cast<long long>(failed),
              static_cast<long long>(attempted));
  if (!correct) {
    std::fprintf(stderr, "mediator_bench: FAILED: %s\n", first_error.c_str());
  }

  const Tail burst_tail = TailOf(measured.burst_ms, kBurstTailCap);
  const Tail query_tail = TailOf(measured.read_ms, kReadTailCap);
  std::printf(
      "tail burst p%.2f (%zu of %zu samples beyond); query p%.2f (%zu of %zu "
      "samples beyond)\n",
      burst_tail.percentile, burst_tail.beyond, burst_tail.samples,
      query_tail.percentile, query_tail.beyond, query_tail.samples);

  std::vector<Metric> metrics;
  const double plain_burst_p50 = Median(plain.burst_ms);
  if (!args.trace) {
    metrics = {
        {"burst_p50_ms", plain_burst_p50, "ms"},
        {"burst_tail_ms", burst_tail.value, "ms"},
        {"updates_per_s", Ratio(plain.updates, plain.writer_s), "1/s"},
        {"query_p50_ms", Median(plain.read_ms), "ms"},
        {"query_tail_ms", query_tail.value, "ms"},
        {"recover_s", Mean(recover_s), "s"},
        {"setup_s", Median(setup_s), "s"},
        {"disk_bytes_per_update", Ratio(plain.disk_bytes, plain.updates), "B"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    const std::map<std::string, SpanTotals> spans = tracer.Totals();
    auto span = [&](const char* name) {
      auto it = spans.find(name);
      return it == spans.end() ? SpanTotals() : it->second;
    };
    const mmv::maint::BatchStats& st = traced.stats;
    const SpanTotals commit_sync = span("durability.commit_sync");
    const SpanTotals commit_ckpt = span("durability.commit_checkpoint");
    const SpanTotals fs_sync = span("durability.fs_sync");
    const double bursts =
        static_cast<double>(std::max<int64_t>(1, traced.bursts));
    metrics = {
        {"parser.parse_burst_ms", span("parser.parse_burst").MeanMs(), "ms"},
        {"maintenance.apply_batch_ms", span("maintenance.apply_batch").MeanMs(),
         "ms"},
        {"maintenance.del_elements", double(st.del_elements), "count"},
        {"maintenance.replacements", double(st.replacements), "count"},
        {"maintenance.step3_replacements", double(st.step3_replacements),
         "count"},
        {"maintenance.insertion_pass_atoms", double(st.insertion_pass_atoms),
         "count"},
        {"maintenance.coalesced_ratio",
         Ratio(double(st.coalesced_away), double(st.input_updates)), "1"},
        {"plan.plan_cache_hits", double(st.plan_cache_hits), "count"},
        {"plan.plan_reorders", double(st.plan_reorders), "count"},
        {"plan.probe_intersections", double(st.probe_intersections), "count"},
        {"constraint.sat_prechecks", double(st.sat_prechecks), "count"},
        {"constraint.sat_rejects", double(st.sat_rejects), "count"},
        {"constraint.sat_reject_ratio",
         Ratio(double(st.sat_rejects), double(st.sat_prechecks)), "1"},
        {"constraint.reject_cache_hits", double(st.reject_cache_hits), "count"},
        {"constraint.solve_epoch_flushes", double(st.solve_epoch_flushes),
         "count"},
        {"domain.dca_calls", double(counted->calls()), "count"},
        {"domain.dca_ms", counted->nanos() / 1e6 / bursts, "ms"},
        {"fixpoint.partitions_run", double(st.partitions_run), "count"},
        {"fixpoint.partition_skipped_small", double(st.partition_skipped_small),
         "count"},
        {"fixpoint.evaluator_clones", double(st.evaluator_clones), "count"},
        {"fixpoint.mutex_evaluator_engaged", double(st.mutex_evaluator_engaged),
         "count"},
        {"snapshot.pin_us", span("snapshot.pin").MeanMs() * 1e3, "us"},
        {"snapshot.segments_shared", double(st.snapshot_nodes_shared), "count"},
        {"snapshot.segments_copied", double(st.snapshot_nodes_copied), "count"},
        {"snapshot.shared_ratio",
         Ratio(double(st.snapshot_nodes_shared),
               double(st.snapshot_nodes_shared + st.snapshot_nodes_copied)),
         "1"},
        {"query.ask_ms", span("query.ask").MeanMs(), "ms"},
        {"query.atoms_scanned_per_result",
         Ratio(double(traced.atoms_scanned), double(traced.results)), "1"},
        {"durability.log_burst_ms", span("durability.log_burst").MeanMs(),
         "ms"},
        {"durability.commit_sync_ms", commit_sync.MeanMs(), "ms"},
        {"durability.commit_checkpoint_ms", commit_ckpt.MeanMs(), "ms"},
        {"durability.checkpoints_full", double(traced_log->full_frames()),
         "count"},
        {"durability.checkpoints_delta", double(traced_log->delta_frames()),
         "count"},
        {"durability.wal_bytes", double(st.wal_bytes), "B"},
        {"durability.checkpoint_bytes", double(traced_log->frame_bytes()), "B"},
        {"durability.fs_sync_ms", fs_sync.MeanMs(), "ms"},
        {"durability.fs_syncs", double(fs_sync.count), "count"},
        {"recovery.fs_read_ms", span("recovery.fs_read").self_ns / 1e6, "ms"},
        {"recovery.replayed_bursts", double(info.replayed_bursts), "count"},
        {"recovery.delta_checkpoints_composed",
         double(info.delta_checkpoints_composed), "count"},
        {"recovery.replay_insertion_pass_atoms",
         double(info.replay_stats.insertion_pass_atoms), "count"},
        {"harness.reader_lag_ms",
         Mean(traced.read_lag_ms), "ms"},
        {"harness.tracing_overhead_frac",
         Ratio(Median(traced.burst_ms) - plain_burst_p50, plain_burst_p50),
         "1"},
    };
    const std::string trace_path =
        args.work_dir + "/trace-" + workload->name() + ".jsonl";
    if (tracer.WriteJsonLines(trace_path)) {
      std::printf("trace %s\n", trace_path.c_str());
    }
  }

  fs::remove_all(run_dir, ec);
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: mediator_bench --workload <ingest|serve|closure> "
                 "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir>\n");
    return 2;
  }
  if (perfbench::RefuseOracleModes()) return 2;
  return perfbench::Run(args);
}

#include "perfbench/workloads.h"

#include <algorithm>
#include <mutex>
#include <sstream>

namespace perfbench {
namespace {

// Independent chains c<k>_p0 .. c<k>_p<depth> over integer ids. Each
// chain's live base facts are a sliding window [lo, hi): a burst deletes
// the oldest ids of the chains it lands on and inserts as many new ones,
// so the view keeps a steady size however long the run lasts, and the
// live set at any point of the stream is two numbers per chain.
struct WindowChainsConfig {
  int chains = 8;
  int depth = 4;
  int width = 256;
  bool guarded = false;       // c<k>_p<l+1>(X) <- c<k>_p<l>(X) & c<k>_p0(X)
  int chains_per_burst = 1;   // distinct chains one burst lands on
  int slide = 1;              // deletes (and inserts) per chain per burst
  // Each read asks one id at every derived level (the id's whole
  // derivation chain), else at one random level.
  bool lineage_reads = false;
  bool mix_query_pred = false;  // alternate Ask with QueryPred
};

class WindowChains : public Workload {
 public:
  WindowChains(std::string name, WorkloadShape shape, WindowChainsConfig cfg,
               uint64_t seed)
      : Workload(std::move(name), shape),
        cfg_(cfg),
        rng_(seed),
        window_(static_cast<size_t>(cfg.chains), {0, cfg.width}) {
    // A seeded popularity order, so which chain is hot depends on the
    // seed while the skew itself is fixed: chain hot_[r] has weight
    // 1/(r+1).
    for (int c = 0; c < cfg_.chains; ++c) hot_.push_back(c);
    rng_.Shuffle(&hot_);
    history_.push_back(window_);
  }

  std::string ProgramText() const override {
    std::ostringstream os;
    for (int c = 0; c < cfg_.chains; ++c) {
      for (int l = 0; l < cfg_.depth; ++l) {
        os << Pred(c, l + 1) << "(X) <- " << Pred(c, l) << "(X)";
        if (cfg_.guarded) os << " & " << Pred(c, 0) << "(X)";
        os << ".\n";
      }
      for (int64_t id = window_[c].first; id < window_[c].second; ++id) {
        os << Pred(c, 0) << "(X) <- X = " << id << ".\n";
      }
    }
    return os.str();
  }

  std::string NextBurst() override {
    std::vector<int> picked;
    while (static_cast<int>(picked.size()) < cfg_.chains_per_burst) {
      int c = hot_[PickSkewed()];
      if (std::find(picked.begin(), picked.end(), c) == picked.end()) {
        picked.push_back(c);
      }
    }
    // Deletes first, then inserts: one StDel pass and one insertion pass.
    std::ostringstream os;
    for (int c : picked) {
      for (int j = 0; j < cfg_.slide; ++j) {
        os << "del " << Pred(c, 0) << "(X) <- X = " << window_[c].first + j
           << ".\n";
      }
      window_[c].first += cfg_.slide;
    }
    for (int c : picked) {
      for (int j = 0; j < cfg_.slide; ++j) {
        os << "ins " << Pred(c, 0) << "(X) <- X = " << window_[c].second + j
           << ".\n";
      }
      window_[c].second += cfg_.slide;
    }
    std::lock_guard<std::mutex> lock(mu_);
    history_.push_back(window_);
    return os.str();
  }

  ReadQuery MakeRead(uint64_t bursts_applied, mmv::Rng* rng) const override {
    std::pair<int64_t, int64_t> w;
    int c = static_cast<int>(rng->Int(0, cfg_.chains - 1));
    {
      std::lock_guard<std::mutex> lock(mu_);
      // The writer records a burst's window before applying it, so every
      // epoch a reader can pin has its entry.
      w = history_[std::min<size_t>(bursts_applied, history_.size() - 1)][c];
    }
    ReadQuery q;
    if (cfg_.lineage_reads) {
      for (int l = 1; l <= cfg_.depth; ++l) q.preds.push_back(Pred(c, l));
    } else {
      q.preds.push_back(Pred(c, static_cast<int>(rng->Int(1, cfg_.depth))));
    }
    q.use_query_pred = cfg_.mix_query_pred && rng->Chance(0.5);
    if (rng->Int(0, 3) == 0) {
      // Absent: an id that slid out recently, or one not inserted yet.
      int64_t gone = std::max<int64_t>(0, w.first - 4 * cfg_.slide);
      int64_t id = w.first > gone ? rng->Int(gone, w.first - 1)
                                  : w.second + rng->Int(0, cfg_.slide);
      q.values = {mmv::Value(id)};
      q.expect = false;
    } else {
      q.values = {mmv::Value(rng->Int(w.first, w.second - 1))};
      q.expect = true;
    }
    return q;
  }

 private:
  static std::string Pred(int chain, int level) {
    return "c" + std::to_string(chain) + "_p" + std::to_string(level);
  }

  // Rank r with probability proportional to 1/(r+1).
  int PickSkewed() {
    double total = 0;
    for (int r = 0; r < cfg_.chains; ++r) total += 1.0 / (r + 1);
    double x = rng_.Double(0, total);
    for (int r = 0; r < cfg_.chains; ++r) {
      x -= 1.0 / (r + 1);
      if (x < 0) return r;
    }
    return cfg_.chains - 1;
  }

  WindowChainsConfig cfg_;
  mmv::Rng rng_;                                  // writer thread only
  std::vector<int> hot_;
  std::vector<std::pair<int64_t, int64_t>> window_;  // writer thread only
  mutable std::mutex mu_;
  // Window of every chain after each burst, indexed by bursts applied.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> history_;
};

// DCA-guarded transitive closure over disjoint edge chains:
//
//   path(X,Y) <- e(X,Y).
//   path(X,Y) <- in(S, arith:plus(X,Y)) & e(X,Z) & path(Z,Y).
//
// Every burst deletes a few seeded edges and re-inserts them, so the view
// keeps its size and every published epoch holds the full closure. Chains,
// not random DAGs: under duplicate semantics a DAG's path count (one atom
// per derivation) explodes and burst costs spread over orders of
// magnitude.
class Closure : public Workload {
 public:
  Closure(WorkloadShape shape, int chains, int nodes, int flaps,
          uint64_t seed)
      : Workload("closure", shape),
        chains_(chains),
        nodes_(nodes),
        flaps_(flaps),
        rng_(seed) {}

  std::string ProgramText() const override {
    std::ostringstream os;
    for (int c = 0; c < chains_; ++c) {
      for (int i = 0; i + 1 < nodes_; ++i) {
        os << "e(X,Y) <- X = " << Node(c, i) << " & Y = " << Node(c, i + 1)
           << ".\n";
      }
    }
    os << "path(X,Y) <- e(X,Y).\n"
       << "path(X,Y) <- in(S, arith:plus(X,Y)) & e(X,Z) & path(Z,Y).\n";
    return os.str();
  }

  std::string NextBurst() override {
    std::vector<std::pair<int64_t, int64_t>> edges;
    while (static_cast<int>(edges.size()) < flaps_) {
      int c = static_cast<int>(rng_.Int(0, chains_ - 1));
      int i = static_cast<int>(rng_.Int(0, nodes_ - 2));
      std::pair<int64_t, int64_t> e{Node(c, i), Node(c, i + 1)};
      if (std::find(edges.begin(), edges.end(), e) == edges.end()) {
        edges.push_back(e);
      }
    }
    std::ostringstream os;
    for (const char* op : {"del", "ins"}) {
      for (const auto& [x, y] : edges) {
        os << op << " e(X,Y) <- X = " << x << " & Y = " << y << ".\n";
      }
    }
    return os.str();
  }

  ReadQuery MakeRead(uint64_t, mmv::Rng* rng) const override {
    int c = static_cast<int>(rng->Int(0, chains_ - 1));
    int i = static_cast<int>(rng->Int(0, nodes_ - 2));
    int j = static_cast<int>(rng->Int(i + 1, nodes_ - 1));
    ReadQuery q;
    q.preds = {"path"};
    q.expect = rng->Int(0, 3) != 0;
    if (q.expect) {
      q.values = {mmv::Value(Node(c, i)), mmv::Value(Node(c, j))};
    } else {
      // Backwards along a chain, or across two chains: never a path.
      int other = (c + 1) % chains_;
      q.values = {mmv::Value(Node(c, j)),
                  mmv::Value(chains_ > 1 && rng->Chance(0.5) ? Node(other, j)
                                                             : Node(c, i))};
    }
    return q;
  }

 private:
  int64_t Node(int chain, int i) const {
    return static_cast<int64_t>(chain) * nodes_ + i;
  }

  int chains_;
  int nodes_;
  int flaps_;
  mmv::Rng rng_;  // writer thread only
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       int nproc) {
  if (name == "ingest") {
    // Write-heavy: 64-update closed-loop bursts over 8 guarded chains of
    // depth 8 (~18k atoms); the join, plan and WAL/checkpoint layers do
    // most of the work, and checkpoint stalls show in the burst tail.
    WorkloadShape shape;
    shape.engine_threads = 1;
    shape.read_rate_hz = 100;
    shape.checkpoint_every = 8;
    shape.end_position = 20;  // 2 delta frames + 4 replayed bursts
    WindowChainsConfig cfg;
    cfg.chains = 8;
    cfg.depth = 8;
    cfg.width = 256;
    cfg.guarded = true;
    cfg.chains_per_burst = 2;
    cfg.slide = 16;
    cfg.lineage_reads = true;
    return std::make_unique<WindowChains>(name, shape, cfg, seed);
  }
  if (name == "serve") {
    // Read-heavy: open-loop point queries against a large plain view
    // (8 chains x depth 4 x 2048 ids, ~82k atoms) beside small paced
    // bursts; Pin and the query layer do most of the work.
    WorkloadShape shape;
    shape.engine_threads = 1;
    shape.burst_interval_s = 0.2;
    shape.read_rate_hz = 100;
    shape.checkpoint_every = 8;
    shape.end_position = 20;  // 2 delta frames + 4 replayed bursts
    WindowChainsConfig cfg;
    cfg.chains = 8;
    cfg.depth = 4;
    cfg.width = 2048;
    cfg.chains_per_burst = 1;
    cfg.slide = 2;
    cfg.mix_query_pred = true;
    return std::make_unique<WindowChains>(name, shape, cfg, seed);
  }
  if (name == "closure") {
    // Solver- and parallel-bound: DCA-guarded closure maintenance with
    // StDel step-3 lifts, fanned out over the engine pool. The reader
    // takes one of the nproc threads, the engine the rest (up to 4).
    WorkloadShape shape;
    shape.engine_threads = std::max(1, std::min(4, nproc) - 1);
    shape.read_rate_hz = 20;
    shape.checkpoint_every = 2;
    shape.end_position = 5;  // 2 delta frames + 1 replayed burst
    return std::make_unique<Closure>(shape, /*chains=*/6, /*nodes=*/24,
                                     /*flaps=*/2, seed);
  }
  return nullptr;
}

}  // namespace perfbench

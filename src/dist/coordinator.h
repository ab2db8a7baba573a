// WorkerPool: the process-level half of the coordinator/worker split (PR 8).
//
// The pool forks N worker processes up front (each connected to the
// coordinator by a socketpair speaking RDP1, src/dist/wire.h) and hands them
// opaque work payloads. It is deliberately engine-agnostic: the payload
// semantics live entirely in the Handler the coordinator supplies, which runs
// *inside the forked child* -- for exercising, the handler deserializes a
// (snapshot, sub-shard) work item and runs the exact same fan-out task code
// the in-process path runs (src/core/engine.cc), which is what makes the
// multi-process mode byte-identical by construction.
//
// Failure model: any transport failure -- worker crash, timeout, EOF,
// malformed frame -- marks that worker dead (SIGKILL + reap) and Execute
// returns false; the caller falls back to running the work in-process. A
// worker failure therefore degrades throughput, never correctness and never
// the run. See src/dist/README.md for the full protocol and the
// fork-from-threads caveat.
#ifndef REVNIC_DIST_COORDINATOR_H_
#define REVNIC_DIST_COORDINATOR_H_

#include <sys/types.h>

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace revnic::dist {

// Per-worker cache of coordinator-shipped context blobs (kContext frames):
// shared fan-out state -- an RSS1 step snapshot under the fleet scheduler --
// is installed once and referenced by key from subsequent kWork items, so a
// stolen task never re-ships state its worker already holds. Eviction is
// FIFO in ship order under a byte budget (64 MiB per worker in WorkerPool);
// because the policy is a pure function of the shipped
// sequence, the coordinator keeps a sizes-only mirror per worker that stays
// exactly in sync with the child's cache without any eviction traffic.
class ContextCache {
 public:
  explicit ContextCache(size_t budget_bytes) : budget_(budget_bytes) {}

  bool Contains(const std::string& key) const { return entries_.count(key) != 0; }
  // Child-side lookup; null when the key was never shipped or was evicted.
  const std::vector<uint8_t>* Find(const std::string& key) const;

  // Installs key -> bytes, evicting oldest-shipped entries until the blob
  // fits. The coordinator mirror calls the sizes-only overload with the
  // same sequence, so both ends evict identically.
  void Install(const std::string& key, std::vector<uint8_t> bytes);
  void InstallMirror(const std::string& key, size_t size);

  size_t bytes() const { return bytes_; }

 private:
  void EvictFor(size_t incoming);

  size_t budget_;
  size_t bytes_ = 0;
  std::list<std::string> order_;  // ship order (front = oldest)
  struct Entry {
    std::vector<uint8_t> data;  // empty in the coordinator's mirror
    size_t size = 0;
  };
  std::map<std::string, Entry> entries_;
};

class WorkerPool {
 public:
  // Runs in the forked child for every kWork frame, with the child's
  // context cache for key-referenced state. Returns true and fills *result
  // (sent back as kResult), or returns false with *error set (sent back as
  // kError; the coordinator then fails the item over in-process).
  using Handler =
      std::function<bool(const ContextCache& contexts, const std::vector<uint8_t>& work,
                         std::vector<uint8_t>* result, std::string* error)>;

  struct Options {
    unsigned workers = 2;
  };

  // Forks the workers immediately (fork the pool while the process is still
  // single-threaded -- before the fleet's worker threads start) and
  // runs an eager kHello handshake with each; workers that fail it are
  // marked dead up front.
  WorkerPool(const Options& options, Handler handler);
  ~WorkerPool();  // kShutdown + close + reap every child

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Runs one work payload on an idle live worker, blocking until a worker is
  // free. Returns true with *result on success; false with *error on any
  // worker-side or transport failure (the worker is marked dead on transport
  // failure; a clean kError reply leaves it alive). Thread-safe.
  //
  // The chosen worker is guaranteed to hold (context_key -> context_bytes)
  // in its context cache before the work frame: a kContext frame is shipped
  // first iff the coordinator's mirror says the worker doesn't have it (at
  // most once per worker per key, minus budget evictions). *context_shipped
  // reports whether this call actually shipped the blob -- the caller's
  // bytes-saved accounting.
  bool Execute(const std::vector<uint8_t>& work, std::vector<uint8_t>* result,
               std::string* error, const std::string& context_key,
               const std::vector<uint8_t>& context_bytes, bool* context_shipped);

  // Workers still alive (0 once every worker has failed; Execute then always
  // returns false immediately).
  unsigned alive() const;

 private:
  struct Worker {
    int fd = -1;
    pid_t pid = -1;
    bool dead = false;
    bool busy = false;
    // Sizes-only mirror of the child's context cache (same FIFO policy on
    // the same ship sequence -- see ContextCache).
    std::unique_ptr<ContextCache> mirror;
  };

  void SpawnWorker(unsigned index);
  // Child-side main loop; never returns (terminates via _exit).
  [[noreturn]] void ChildLoop(unsigned index, int fd);
  void MarkDeadLocked(Worker* w);

  Options options_;
  Handler handler_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Worker> workers_;
};

}  // namespace revnic::dist

#endif  // REVNIC_DIST_COORDINATOR_H_

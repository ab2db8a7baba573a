#include "dist/coordinator.h"

#include <signal.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "dist/wire.h"
#include "util/bits.h"
#include "util/log.h"

namespace revnic::dist {
namespace {

// Per-reply deadline: a wedged worker costs one timeout, then its items run
// in-process.
constexpr int kReplyTimeoutMs = 120'000;

// Context-cache byte budget per worker (both the child and its mirror).
constexpr size_t kContextBudgetBytes = size_t{64} << 20;

std::vector<uint8_t> HelloPayload(unsigned index) {
  std::vector<uint8_t> p(4);
  StoreLE(p.data(), index, 4);
  return p;
}

// kContext payload: u32 key length, key bytes, blob bytes.
std::vector<uint8_t> ContextPayload(const std::string& key, const std::vector<uint8_t>& bytes) {
  std::vector<uint8_t> p(4 + key.size() + bytes.size());
  StoreLE(p.data(), static_cast<uint32_t>(key.size()), 4);
  std::copy(key.begin(), key.end(), p.begin() + 4);
  std::copy(bytes.begin(), bytes.end(), p.begin() + 4 + key.size());
  return p;
}

bool ParseContextPayload(const std::vector<uint8_t>& p, std::string* key,
                         std::vector<uint8_t>* bytes) {
  if (p.size() < 4) {
    return false;
  }
  const uint32_t key_len = static_cast<uint32_t>(LoadLE(p.data(), 4));
  if (key_len > p.size() - 4) {
    return false;
  }
  key->assign(p.begin() + 4, p.begin() + 4 + key_len);
  bytes->assign(p.begin() + 4 + key_len, p.end());
  return true;
}

}  // namespace

const std::vector<uint8_t>* ContextCache::Find(const std::string& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second.data;
}

void ContextCache::EvictFor(size_t incoming) {
  while (!order_.empty() && bytes_ + incoming > budget_) {
    auto it = entries_.find(order_.front());
    if (it != entries_.end()) {
      bytes_ -= it->second.size;
      entries_.erase(it);
    }
    order_.pop_front();
  }
}

void ContextCache::Install(const std::string& key, std::vector<uint8_t> bytes) {
  const size_t size = bytes.size();
  EvictFor(size);
  auto [it, inserted] = entries_.emplace(key, Entry{});
  if (!inserted) {
    bytes_ -= it->second.size;  // re-ship after eviction raced a duplicate
  } else {
    order_.push_back(key);
  }
  it->second.data = std::move(bytes);
  it->second.size = size;
  bytes_ += size;
}

void ContextCache::InstallMirror(const std::string& key, size_t size) {
  EvictFor(size);
  auto [it, inserted] = entries_.emplace(key, Entry{});
  if (!inserted) {
    bytes_ -= it->second.size;
  } else {
    order_.push_back(key);
  }
  it->second.size = size;
  bytes_ += size;
}

WorkerPool::WorkerPool(const Options& options, Handler handler)
    : options_(options), handler_(std::move(handler)) {
  workers_.resize(options_.workers);
  for (Worker& w : workers_) {
    w.mirror = std::make_unique<ContextCache>(kContextBudgetBytes);
  }
  for (unsigned i = 0; i < options_.workers; ++i) {
    SpawnWorker(i);
  }
  // Eager handshake: a worker that can't speak RDP1 (fork/socket trouble)
  // is discovered now, not on its first real work item.
  for (unsigned i = 0; i < workers_.size(); ++i) {
    Worker& w = workers_[i];
    if (w.dead) {
      continue;
    }
    std::string err;
    Frame hello;
    if (!WriteFrame(w.fd, FrameType::kHello, HelloPayload(i), &err) ||
        !ReadFrame(w.fd, &hello, kReplyTimeoutMs, &err) ||
        hello.type != FrameType::kHello) {
      RLOG_WARN("dist worker %u failed the RDP1 handshake: %s", i,
                err.empty() ? "unexpected frame" : err.c_str());
      std::lock_guard<std::mutex> lock(mu_);
      MarkDeadLocked(&w);
    }
  }
}

WorkerPool::~WorkerPool() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Worker& w : workers_) {
    if (w.dead) {
      continue;
    }
    std::string err;
    WriteFrame(w.fd, FrameType::kShutdown, {}, &err);
    close(w.fd);
    w.fd = -1;
    int status = 0;
    waitpid(w.pid, &status, 0);
    w.dead = true;
  }
}

void WorkerPool::SpawnWorker(unsigned index) {
  Worker& w = workers_[index];
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    RLOG_WARN("dist worker %u: socketpair failed", index);
    w.dead = true;
    return;
  }
  pid_t pid = fork();
  if (pid < 0) {
    RLOG_WARN("dist worker %u: fork failed", index);
    close(sv[0]);
    close(sv[1]);
    w.dead = true;
    return;
  }
  if (pid == 0) {
    // Child: keep only our end; the parent ends of earlier siblings came
    // across the fork and must not keep those sockets alive from here.
    close(sv[0]);
    for (unsigned i = 0; i < index; ++i) {
      if (workers_[i].fd >= 0) {
        close(workers_[i].fd);
      }
    }
    ChildLoop(index, sv[1]);
  }
  close(sv[1]);
  w.fd = sv[0];
  w.pid = pid;
}

void WorkerPool::ChildLoop(unsigned index, int fd) {
  // Deterministic crash hook for the failover tests: the first worker dies
  // on its first work item, proving a mid-run worker loss still yields the
  // identical merged result via in-process failover.
  const bool kill_on_work = index == 0 && getenv("REVNIC_DIST_KILL_FIRST_WORKER") != nullptr;
  ContextCache cache(kContextBudgetBytes);
  for (;;) {
    std::string err;
    Frame frame;
    if (!ReadFrame(fd, &frame, /*timeout_ms=*/-1, &err)) {
      _exit(2);  // coordinator went away or stream corrupted
    }
    switch (frame.type) {
      case FrameType::kHello:
        if (!WriteFrame(fd, FrameType::kHello, frame.payload, &err)) {
          _exit(2);
        }
        break;
      case FrameType::kShutdown:
        _exit(0);
      case FrameType::kContext: {
        std::string key;
        std::vector<uint8_t> bytes;
        if (!ParseContextPayload(frame.payload, &key, &bytes)) {
          _exit(2);  // protocol violation, same as an unknown frame type
        }
        cache.Install(key, std::move(bytes));
        break;  // no reply by design; the next kWork references it by key
      }
      case FrameType::kWork: {
        if (kill_on_work) {
          _exit(17);
        }
        std::vector<uint8_t> result;
        std::string handler_err;
        bool ok = handler_ && handler_(cache, frame.payload, &result, &handler_err);
        if (ok) {
          if (!WriteFrame(fd, FrameType::kResult, result, &err)) {
            _exit(2);
          }
        } else {
          std::vector<uint8_t> msg(handler_err.begin(), handler_err.end());
          if (!WriteFrame(fd, FrameType::kError, msg, &err)) {
            _exit(2);
          }
        }
        break;
      }
      default:
        _exit(2);  // protocol violation
    }
  }
}

void WorkerPool::MarkDeadLocked(Worker* w) {
  if (w->dead) {
    return;
  }
  w->dead = true;
  if (w->fd >= 0) {
    close(w->fd);
    w->fd = -1;
  }
  if (w->pid > 0) {
    kill(w->pid, SIGKILL);
    int status = 0;
    waitpid(w->pid, &status, 0);
  }
  cv_.notify_all();
}

unsigned WorkerPool::alive() const {
  std::lock_guard<std::mutex> lock(mu_);
  unsigned n = 0;
  for (const Worker& w : workers_) {
    n += w.dead ? 0 : 1;
  }
  return n;
}

bool WorkerPool::Execute(const std::vector<uint8_t>& work, std::vector<uint8_t>* result,
                         std::string* error, const std::string& context_key,
                         const std::vector<uint8_t>& context_bytes, bool* context_shipped) {
  *context_shipped = false;
  Worker* w = nullptr;
  bool ship_context = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      unsigned live = 0;
      for (Worker& cand : workers_) {
        if (cand.dead) {
          continue;
        }
        ++live;
        if (!cand.busy) {
          w = &cand;
          break;
        }
      }
      if (w != nullptr) {
        w->busy = true;
        break;
      }
      if (live == 0) {
        if (error != nullptr) {
          *error = "no live dist workers";
        }
        return false;
      }
      cv_.wait(lock);
    }
    // Decide the context ship under the lock (the mirror belongs to this
    // worker, and busy=true means no other Execute touches it until we're
    // done), but do the actual I/O outside it.
    if (!w->mirror->Contains(context_key)) {
      ship_context = true;
      w->mirror->InstallMirror(context_key, context_bytes.size());
    }
  }

  std::string err;
  Frame reply;
  bool transport_ok = true;
  if (ship_context) {
    transport_ok = WriteFrame(w->fd, FrameType::kContext,
                              ContextPayload(context_key, context_bytes), &err);
    *context_shipped = transport_ok;
  }
  transport_ok = transport_ok && WriteFrame(w->fd, FrameType::kWork, work, &err) &&
                 ReadFrame(w->fd, &reply, kReplyTimeoutMs, &err);
  bool ok = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!transport_ok) {
      if (error != nullptr) {
        *error = err;
      }
      MarkDeadLocked(w);
    } else if (reply.type == FrameType::kResult) {
      *result = std::move(reply.payload);
      ok = true;
    } else if (reply.type == FrameType::kError) {
      if (error != nullptr) {
        error->assign(reply.payload.begin(), reply.payload.end());
      }
      // A clean handler error is a healthy worker reporting a bad item;
      // keep it in the pool.
    } else {
      if (error != nullptr) {
        *error = "RDP1: unexpected reply frame type";
      }
      MarkDeadLocked(w);
    }
    w->busy = false;
  }
  cv_.notify_all();
  return ok;
}

}  // namespace revnic::dist

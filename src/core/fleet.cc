#include "core/fleet.h"

#include <algorithm>
#include <functional>

namespace revnic::core {
namespace {

unsigned ArgminLane(const std::vector<uint64_t>& loads) {
  unsigned best = 0;
  for (unsigned l = 1; l < loads.size(); ++l) {
    if (loads[l] < loads[best]) {
      best = l;
    }
  }
  return best;
}

// LPT list schedule: works heaviest first, each to the least-loaded of
// `lanes` lanes (ties lowest index); returns the heaviest lane's load. Equal
// works are interchangeable, so the result depends only on the multiset of
// works, never on the order they completed in.
uint64_t LptMakespan(std::vector<uint64_t> works, unsigned lanes) {
  std::sort(works.begin(), works.end(), std::greater<uint64_t>());
  std::vector<uint64_t> loads(std::max(1u, lanes), 0);
  for (uint64_t w : works) {
    loads[ArgminLane(loads)] += w;
  }
  return *std::max_element(loads.begin(), loads.end());
}

}  // namespace

FleetScheduler::FleetScheduler(const Options& options) : options_(options) {
  options_.workers = std::max(1u, options_.workers);
  lanes_.resize(options_.workers);
  committed_.assign(options_.workers, 0);
  threads_.reserve(options_.workers);
  for (unsigned lane = 0; lane < options_.workers; ++lane) {
    threads_.emplace_back([this, lane] { WorkerLoop(lane); });
  }
}

FleetScheduler::~FleetScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void FleetScheduler::SetJobSpineWork(uint32_t job, uint64_t spine_work) {
  std::lock_guard<std::mutex> lock(mu_);
  spine_work_[job] = spine_work;
}

void FleetScheduler::RunJobTasks(uint32_t job, std::vector<Task> tasks) {
  std::unique_lock<std::mutex> lock(mu_);
  for (Task& t : tasks) {
    t.job = job;
    t.estimate = std::max<uint64_t>(1, t.estimate);
    // Home placement: least-committed lane by estimate, tie lowest index.
    const unsigned home = ArgminLane(committed_);
    committed_[home] += t.estimate;
    PKey key{t.estimate, job, t.step, t.shard};
    ++outstanding_[job];
    lanes_[home].emplace(key, std::move(t));
  }
  work_cv_.notify_all();
  done_cv_.wait(lock, [this, job] {
    auto it = outstanding_.find(job);
    return it == outstanding_.end() || it->second == 0;
  });
}

void FleetScheduler::WorkerLoop(unsigned lane) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Own lane first; with stealing on, an idle worker takes the globally
    // best queued task (highest estimate, canonical tie-break) from any
    // other lane.
    unsigned src = static_cast<unsigned>(lanes_.size());
    if (!lanes_[lane].empty()) {
      src = lane;
    } else if (options_.steal) {
      const PKey* best = nullptr;
      for (unsigned l = 0; l < lanes_.size(); ++l) {
        if (lanes_[l].empty()) {
          continue;
        }
        const PKey& k = lanes_[l].begin()->first;
        if (best == nullptr || k < *best) {
          best = &lanes_[l].begin()->first;
          src = l;
        }
      }
    }
    if (src == lanes_.size()) {
      if (stop_) {
        return;
      }
      work_cv_.wait(lock);
      continue;
    }
    auto it = lanes_[src].begin();
    Task task = std::move(it->second);
    lanes_[src].erase(it);
    if (src != lane) {
      ++real_steals_;
    }
    lock.unlock();
    const uint64_t work = task.run ? task.run() : 0;
    lock.lock();
    works_.push_back(work);
    if (--outstanding_[task.job] == 0) {
      done_cv_.notify_all();
    }
  }
}

FleetBatchStats FleetScheduler::ComputeStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  FleetBatchStats st;
  st.workers = options_.workers;
  st.steal = options_.steal;
  st.tasks = static_cast<uint32_t>(works_.size());
  for (uint64_t w : works_) {
    st.total_task_work += w;
  }
  st.real_steals = real_steals_;
  for (const auto& [job, spine] : spine_work_) {
    st.max_spine_work = std::max(st.max_spine_work, spine);
  }
  // Spines run on their own batch threads, overlapped with the fan-out; the
  // heaviest spine floors the batch.
  st.makespan = std::max(LptMakespan(works_, options_.workers), st.max_spine_work);
  return st;
}

}  // namespace revnic::core

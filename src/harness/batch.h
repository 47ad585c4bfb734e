/**
 * @file
 * The generic deterministic batch core shared by every engine.
 *
 * Both the simulation engine (harness::Engine) and the multi-backend
 * evaluation engine (eval::Engine) need the same machinery: take each
 * job as one shared immutable copy and key it; partition the batch
 * into compute work, cache hits and in-batch aliases; shard the
 * compute work over a worker pool; resolve the aliases; and deliver
 * results *in job order* so downstream output is deterministic at any
 * thread count. This header factors that core out as a template over
 * the (Job, Result) pair. Results share their job and are shared by
 * the cache, so serving a repeated cell copies no test.
 *
 * The contract that makes sharding safe is the same as in PR 1: a
 * job's result must be a pure function of the job itself (seeds are
 * derived from job keys, never from scheduling), so any assignment of
 * jobs to workers yields bit-identical results.
 */

#ifndef GPULITMUS_HARNESS_BATCH_H
#define GPULITMUS_HARNESS_BATCH_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace gpulitmus::harness {

/**
 * Result memo shared across an engine's lifetime: maps job cache keys
 * to computed results. Thread-safe; hit counting includes in-batch
 * aliases (a duplicate cell served from a batch-mate's computation).
 */
template <typename Result>
class BatchCache
{
  public:
    std::shared_ptr<const Result>
    lookup(uint64_t key) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = map_.find(key);
        return it == map_.end() ? nullptr : it->second;
    }

    void
    store(uint64_t key, std::shared_ptr<const Result> result)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        map_.emplace(key, std::move(result));
    }

    void
    addHits(uint64_t n)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        hits_ += n;
    }

    uint64_t
    hits() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return hits_;
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return map_.size();
    }

    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        map_.clear();
    }

  private:
    mutable std::mutex mutex_;
    std::unordered_map<uint64_t, std::shared_ptr<const Result>> map_;
    uint64_t hits_ = 0;
};

/**
 * Pool-sharing policy: how many threads a single job may spend on
 * *intra-job* parallelism (a sharded mc exploration) when the batch
 * is already fanning jobs out over `poolThreads` workers. The two
 * levels share one budget rather than multiplying: a saturated batch
 * (at least as many jobs as workers) pins every job to one thread,
 * a small batch splits the pool evenly, and a singleton job gets the
 * whole pool. Purely a wall-clock decision — job results are
 * invariant to thread counts at both levels — so the policy needs no
 * cache-key footprint.
 */
inline int
intraJobThreads(size_t batchJobs, int poolThreads)
{
    if (poolThreads < 1)
        poolThreads = 1;
    if (batchJobs <= 1)
        return poolThreads;
    if (batchJobs >= static_cast<size_t>(poolThreads))
        return 1;
    return poolThreads / static_cast<int>(batchJobs);
}

/** The pluggable pieces of a batch run. */
template <typename Job, typename Result>
struct BatchOps
{
    /** The engine's immutable shared copy of a submitted job
     * (harness::share, after any engine normalisation). `previous` is
     * the copy made for the job before it, so batch-mates naming one
     * test can share its serialisation. Every later op and every
     * result sees only these copies. */
    std::function<std::shared_ptr<const Job>(const Job &,
                                             const Job *previous)>
        share;
    /** Cache identity of a job; jobs with equal keys have
     * interchangeable results (up to re-labelling). */
    std::function<uint64_t(const Job &)> cacheKey;
    /** Compute one job's result (called from worker threads). */
    std::function<std::shared_ptr<const Result>(
        const std::shared_ptr<const Job> &)>
        execute;
    /** Re-point a computed/cached result at the job that requested
     * it (labels and other non-key identity), marking it served. */
    std::function<std::shared_ptr<const Result>(
        const Result &, const std::shared_ptr<const Job> &)>
        servedFrom;
    /** Human label for telemetry spans (obs/trace.h); optional, only
     * consulted while a trace is being collected. */
    std::function<std::string(const Job &)> describe;
};

/**
 * Execute a batch: share and key each job, cache/alias partition,
 * worker pool, then hand every result to `deliver` in job order.
 * `cache` may be null (no memoisation — every job computes, even
 * duplicates). `progress` is invoked from worker threads as
 * *computed* jobs finish (cache hits and aliases are not reported);
 * completion order is nondeterministic.
 */
template <typename Job, typename Result>
void
runBatch(const std::vector<Job> &jobs, int threads,
         BatchCache<Result> *cache, const BatchOps<Job, Result> &ops,
         const std::function<void(size_t done, size_t total,
                                  const Result &)> &progress,
         const std::function<void(const Result &)> &deliver)
{
    const size_t n = jobs.size();
    const bool obs_on = obs::enabled();
    auto micros_since = [](std::chrono::steady_clock::time_point t0) {
        auto us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
        return static_cast<uint64_t>(us < 0 ? 0 : us);
    };
    std::vector<std::shared_ptr<const Job>> owned(n);
    std::vector<std::shared_ptr<const Result>> slots(n);

    // Partition into compute jobs, cache hits and in-batch aliases.
    // An alias is a job whose cache key is owned by an earlier job in
    // this batch; it reuses that job's result instead of recomputing.
    const auto partition_start = std::chrono::steady_clock::now();
    std::vector<size_t> compute;
    std::vector<uint64_t> keys;
    std::vector<std::pair<size_t, size_t>> aliases; // (index, owner)
    uint64_t batch_hits = 0;
    {
        std::unordered_map<uint64_t, size_t> owner;
        compute.reserve(n);
        if (cache)
            keys.resize(n);
        for (size_t i = 0; i < n; ++i) {
            owned[i] = ops.share(jobs[i], i ? owned[i - 1].get() : nullptr);
            if (!cache) {
                compute.push_back(i);
                continue;
            }
            keys[i] = ops.cacheKey(*owned[i]);
            if (auto cached = cache->lookup(keys[i])) {
                slots[i] = ops.servedFrom(*cached, owned[i]);
                ++batch_hits;
                continue;
            }
            auto [claimed, fresh] = owner.try_emplace(keys[i], i);
            if (fresh) {
                compute.push_back(i);
            } else {
                aliases.push_back({i, claimed->second});
                ++batch_hits;
            }
        }
        if (cache)
            cache->addHits(batch_hits);
    }

    // Telemetry observes the batch — counters and wall clocks only,
    // never job identity or sharding, so results stay bit-identical
    // with GPULITMUS_OBS on or off (tests/test_obs.cc pins this).
    if (obs_on) {
        obs::counter("engine_batches_total").add();
        obs::counter("engine_jobs_total").add(n);
        obs::counter("engine_jobs_cached_total").add(batch_hits);
        obs::timer("engine_partition_us")
            .record(micros_since(partition_start));
    }
    const auto batch_start = std::chrono::steady_clock::now();

    // Shard the compute jobs over the pool. Results are pure
    // functions of their jobs, so any sharding is bit-identical.
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex progress_mutex;
    auto worker = [&]() {
        const auto worker_start = std::chrono::steady_clock::now();
        uint64_t busy_us = 0;
        for (;;) {
            size_t c = next.fetch_add(1);
            if (c >= compute.size())
                break;
            size_t idx = compute[c];
            // Queue wait: how long the job sat behind its batch-mates
            // before a worker picked it up.
            if (obs_on)
                obs::timer("engine_queue_wait_us")
                    .record(micros_since(batch_start));
            std::shared_ptr<const Result> result;
            {
                obs::Span span(ops.describe && obs::Trace::active()
                                   ? "job " + ops.describe(*owned[idx])
                                   : std::string("job"),
                               "engine");
                const auto job_start =
                    std::chrono::steady_clock::now();
                result = ops.execute(owned[idx]);
                if (obs_on) {
                    uint64_t us = micros_since(job_start);
                    obs::timer("engine_job_latency_us").record(us);
                    busy_us += us;
                }
            }
            slots[idx] = result;
            size_t finished = done.fetch_add(1) + 1;
            if (progress) {
                std::lock_guard<std::mutex> lock(progress_mutex);
                progress(finished, compute.size(), *result);
            }
        }
        // Utilisation: busy µs over wall µs, summed across workers.
        if (obs_on) {
            obs::counter("engine_worker_busy_us_total").add(busy_us);
            obs::counter("engine_worker_wall_us_total")
                .add(micros_since(worker_start));
        }
    };

    int pool = static_cast<int>(
        std::min<size_t>(static_cast<size_t>(threads), compute.size()));
    if (pool <= 1) {
        worker();
    } else {
        std::vector<std::thread> workers;
        workers.reserve(static_cast<size_t>(pool));
        for (int t = 0; t < pool; ++t)
            workers.emplace_back(worker);
        for (auto &t : workers)
            t.join();
    }

    // Resolve in-batch aliases now that their owners have run,
    // install computed results into the cache, and deliver in job
    // order: deterministic at any thread count.
    const auto deliver_start = std::chrono::steady_clock::now();
    for (auto [idx, owner_idx] : aliases)
        slots[idx] = ops.servedFrom(*slots[owner_idx], owned[idx]);
    if (cache) {
        for (size_t idx : compute)
            cache->store(keys[idx], slots[idx]);
    }
    for (const auto &slot : slots)
        deliver(*slot);
    if (obs_on)
        obs::timer("engine_deliver_us")
            .record(micros_since(deliver_start));
}

} // namespace gpulitmus::harness

#endif // GPULITMUS_HARNESS_BATCH_H

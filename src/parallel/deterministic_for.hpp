#pragma once
// Deterministic sharded-index parallel execution.
//
// `deterministic_for` / `deterministic_reduce` split an index range [0, n)
// into a chunk sequence that depends ONLY on n — never on the worker count —
// and let workers claim chunks dynamically. A body either writes only
// index-owned state, or accumulates into its chunk's private slot in
// ascending index order; chunk slots are then folded in chunk order after
// the join. Consequently the result is bit-identical for ANY worker count,
// including 1 — doubles included, because the grouping of every
// floating-point reduction is fixed by n alone.
//
// Seeding rule (DESIGN.md §4/§8): stochastic bodies receive a stats::Rng
// seeded as
//
//   index_seed(base, i) = base ^ (0x9e3779b97f4a7c15 * (i + 1))
//
// so index i's stream is a function of (base, i) only. This is the same
// per-chip contract the tester loop has always had; hold-bound sampling and
// every future stochastic loop use it too.
//
// Scheduling: work runs on the shared ThreadPool, but the CALLER is always a
// worker — it claims chunks like everyone else and only sleeps once no chunk
// is left unclaimed. Pool helpers that get scheduled late (or never, on a
// saturated pool) find no work and exit. Two consequences:
//  * nested loops (campaign -> flow -> chip loop) cannot deadlock;
//  * forward progress never depends on pool pickup.
//
// Exceptions thrown by the body are captured per chunk; every chunk still
// runs, and after the join the LOWEST-INDEX chunk's exception is rethrown on
// the caller. Since bodies are deterministic per index, the propagated
// exception is the same for any worker count — the serial order's first
// failure.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "stats/rng.hpp"

namespace effitest::parallel {

/// Golden-ratio stride decorrelating per-index seed streams.
inline constexpr std::uint64_t kSeedStride = 0x9e3779b97f4a7c15ULL;

/// Seed of index i's private stream under master seed `base`.
[[nodiscard]] constexpr std::uint64_t index_seed(std::uint64_t base,
                                                 std::size_t index) {
  return base ^ (kSeedStride * (static_cast<std::uint64_t>(index) + 1));
}

struct ForOptions {
  /// Worker threads. 0 = shared-pool width (hardware concurrency). The
  /// effective count is additionally clamped to the number of work items —
  /// see resolve_workers. Results never depend on this value.
  std::size_t threads = 0;
};

/// Effective worker count for `items` work items: `requested` (0 = the
/// shared-pool width) clamped to `items` and to pool width + 1 (the pool's
/// helpers plus the participating caller — more can never run
/// concurrently, so higher requests would only queue dead no-op tasks), at
/// least 1. This is the clamp documented on FlowOptions::threads: a run
/// over 3 chips uses at most 3 workers no matter what was requested.
[[nodiscard]] inline std::size_t resolve_workers(std::size_t requested,
                                                 std::size_t items) {
  std::size_t w = requested == 0 ? ThreadPool::shared().width() : requested;
  w = std::min(w, ThreadPool::shared().width() + 1);
  w = std::min(w, items);
  return w == 0 ? 1 : w;
}

namespace detail {

/// Upper bound on chunks per loop. Chunking depends only on n: n chunks when
/// n < kMaxChunks, else kMaxChunks near-equal contiguous blocks. 256 shards
/// keep dynamic claiming balanced (uneven chunk costs, e.g. the shrinking
/// covariance triangle) without bloating per-chunk accumulator storage.
inline constexpr std::size_t kMaxChunks = 256;

[[nodiscard]] inline std::size_t chunk_count(std::size_t n) {
  return n < kMaxChunks ? n : kMaxChunks;
}

[[nodiscard]] inline std::size_t chunk_begin(std::size_t n, std::size_t chunks,
                                             std::size_t c) {
  return n / chunks * c + std::min(c, n % chunks);
}

/// Run chunk_body(c) for every chunk of [0, n), caller participating.
template <typename ChunkBody>
void run_chunks(std::size_t n, const ForOptions& opts, ChunkBody&& chunk_body) {
  if (n == 0) return;
  const std::size_t chunks = chunk_count(n);
  const std::size_t workers = resolve_workers(opts.threads, chunks);
  if (workers <= 1) {
    for (std::size_t c = 0; c < chunks; ++c) chunk_body(c);
    return;
  }

  struct State {
    std::size_t chunks = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mutex;
    std::condition_variable all_done;
    // Per-chunk capture (each slot written only by the chunk's claimer);
    // the lowest-index one is rethrown, making the propagated exception
    // independent of scheduling.
    std::vector<std::exception_ptr> errors;
  };
  // Heap-shared so helpers scheduled after the caller returned (they found
  // no chunk left) can still touch the control block safely.
  auto state = std::make_shared<State>();
  state->chunks = chunks;
  state->errors.resize(chunks);

  // The body itself stays on the caller's frame: a helper only dereferences
  // it while holding an unfinished chunk, which keeps the caller waiting.
  ChunkBody* body = &chunk_body;
  auto work = [state, body] {
    while (true) {
      const std::size_t c = state->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= state->chunks) return;
      try {
        (*body)(c);
      } catch (...) {
        state->errors[c] = std::current_exception();
      }
      if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          state->chunks) {
        std::lock_guard lock(state->mutex);
        state->all_done.notify_all();
      }
    }
  };

  // A submit() that throws (allocation failure) must not unwind past this
  // frame while already-queued helpers can still claim chunks through the
  // dangling body pointer — fewer helpers is fine, the caller drains the
  // rest itself.
  try {
    for (std::size_t w = 1; w < workers; ++w) ThreadPool::shared().submit(work);
  } catch (...) {
  }
  work();

  std::unique_lock lock(state->mutex);
  state->all_done.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == state->chunks;
  });
  for (const std::exception_ptr& e : state->errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace detail

/// body(i) for every i in [0, n). The body must only write state owned by
/// index i (distinct matrix cells, slot i of a result vector, ...).
template <typename Body>
void deterministic_for(std::size_t n, const ForOptions& opts, Body&& body) {
  const std::size_t chunks = detail::chunk_count(n);
  detail::run_chunks(n, opts, [&, n, chunks](std::size_t c) {
    const std::size_t end = detail::chunk_begin(n, chunks, c + 1);
    for (std::size_t i = detail::chunk_begin(n, chunks, c); i < end; ++i) {
      body(i);
    }
  });
}

/// Seeded variant: body(i, rng) where rng is freshly seeded
/// index_seed(seed_base, i) — index i's stream is independent of every other
/// index and of the worker count.
template <typename Body>
void deterministic_for(std::size_t n, const ForOptions& opts,
                       std::uint64_t seed_base, Body&& body) {
  deterministic_for(n, opts, [&](std::size_t i) {
    stats::Rng rng(index_seed(seed_base, i));
    body(i, rng);
  });
}

/// Blocked seeded variant, for kernels that sample several indices per
/// call: [0, n) is cut into spans of `block * span_blocks` indices, which
/// fan out like the indices of the unseeded variant. Each span default-
/// constructs one Scratch and runs body(first, rngs, scratch) on its blocks
/// of up to `block` consecutive indices in ascending order, rngs[b] being
/// seeded index_seed(seed_base, first + b): index i's stream is the seeded
/// variant's, so results are bit-identical for any worker count.
template <typename Scratch, typename Body>
void deterministic_for_blocks(std::size_t n, std::size_t block,
                              std::size_t span_blocks, const ForOptions& opts,
                              std::uint64_t seed_base, Body&& body) {
  const std::size_t span = block * span_blocks;
  deterministic_for((n + span - 1) / span, opts, [&](std::size_t s) {
    Scratch scratch;
    std::vector<stats::Rng> rngs;
    rngs.reserve(block);
    const std::size_t end = std::min(n, (s + 1) * span);
    for (std::size_t first = s * span; first < end; first += block) {
      rngs.clear();
      for (std::size_t i = first; i < std::min(end, first + block); ++i) {
        rngs.emplace_back(index_seed(seed_base, i));
      }
      body(first, std::span<stats::Rng>(rngs), scratch);
    }
  });
}

/// Map-reduce over [0, n): body(i, acc) accumulates index i into its chunk's
/// private accumulator (indices ascending within a chunk); combine(total,
/// chunk_acc) folds the chunk accumulators in chunk order. Acc must be
/// default-constructible; the chunk layout depends only on n, so the folded
/// result — floating point included — is bit-identical for any worker count.
template <typename Acc, typename Body, typename Combine>
[[nodiscard]] Acc deterministic_reduce(std::size_t n, const ForOptions& opts,
                                       Body&& body, Combine&& combine) {
  const std::size_t chunks = detail::chunk_count(n);
  std::vector<Acc> slots(chunks);
  detail::run_chunks(n, opts, [&, n, chunks](std::size_t c) {
    const std::size_t end = detail::chunk_begin(n, chunks, c + 1);
    for (std::size_t i = detail::chunk_begin(n, chunks, c); i < end; ++i) {
      body(i, slots[c]);
    }
  });
  Acc total{};
  for (const Acc& s : slots) combine(total, s);
  return total;
}

/// Seeded map-reduce: body(i, rng, acc) with rng as in the seeded
/// deterministic_for. This is the shape of the Monte-Carlo chip loop.
template <typename Acc, typename Body, typename Combine>
[[nodiscard]] Acc deterministic_reduce(std::size_t n, const ForOptions& opts,
                                       std::uint64_t seed_base, Body&& body,
                                       Combine&& combine) {
  return deterministic_reduce<Acc>(
      n, opts,
      [&](std::size_t i, Acc& acc) {
        stats::Rng rng(index_seed(seed_base, i));
        body(i, rng, acc);
      },
      std::forward<Combine>(combine));
}

}  // namespace effitest::parallel

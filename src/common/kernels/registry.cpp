// The backend registry: the descriptor table, name/alias lookup, and the
// process-global active-backend selection (CPU detection + the re-checkable
// MEMHD_BATCH_KERNEL environment override).
//
// Thread contract (why this file carries no capability annotations): the
// only shared mutable state is g_active, a single atomic pointer into an
// immutable descriptor table. Selection races are benign by design — two
// threads racing select_backend() both install *some* valid backend via
// compare_exchange, and readers always see a fully-constructed descriptor
// (the table is const static storage). There is no mutex here for the
// thread-safety analysis to check; the contract is "atomics only, no
// blocking", which TSan covers.
#include "src/common/kernels/backend.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "src/common/kernels/backend_common.hpp"

namespace memhd::common {
namespace {

// Selection-preference order: widest supported SIMD tier first, portable
// last (always supported, so detection can never come up empty).
const KernelBackend* const kBackends[] = {
#if MEMHD_KERNELS_X86
    &kernels::kAvx512Vpopcntdq,
    &kernels::kAvx2,
#endif
#if MEMHD_KERNELS_NEON
    &kernels::kNeon,
#endif
    &kernels::kPortableTiled,
};

std::atomic<const KernelBackend*> g_active{nullptr};

const KernelBackend* best_supported() {
  for (const KernelBackend* backend : kBackends)
    if (backend->supported()) return backend;
  return &kernels::kPortableTiled;
}

// Auto-detection: the MEMHD_BATCH_KERNEL environment variable wins when it
// names a supported backend (re-read on every call — tests set it between
// select_backend("auto") calls); otherwise the best supported tier.
const KernelBackend* detect() {
  const char* env = std::getenv("MEMHD_BATCH_KERNEL");
  if (env != nullptr && *env != '\0' &&
      std::string_view(env) != std::string_view("auto")) {
    if (const KernelBackend* backend = find_kernel_backend(env)) {
      if (backend->supported()) return backend;
      std::fprintf(stderr,
                   "memhd: MEMHD_BATCH_KERNEL=%s is not supported on this "
                   "CPU; falling back to auto selection\n",
                   env);
    } else {
      std::fprintf(stderr,
                   "memhd: unknown MEMHD_BATCH_KERNEL=%s (known backends:",
                   env);
      for (const KernelBackend* backend : kBackends)
        std::fprintf(stderr, " %s", backend->name);
      std::fprintf(stderr, "); falling back to auto selection\n");
    }
  }
  return best_supported();
}

}  // namespace

std::span<const KernelBackend* const> kernel_backends() {
  return {kBackends, std::size(kBackends)};
}

const KernelBackend* find_kernel_backend(std::string_view name) {
  for (const KernelBackend* backend : kBackends) {
    if (name == backend->name) return backend;
    if (backend->alias != nullptr && name == backend->alias) return backend;
  }
  return nullptr;
}

const KernelBackend& active_backend() {
  const KernelBackend* backend = g_active.load(std::memory_order_acquire);
  if (backend == nullptr) {
    // First use: publish detect()'s answer, but only into the still-null
    // slot — a plain store could overwrite a select_backend() that raced
    // in between our load and store, silently discarding an explicit
    // selection. On CAS failure `backend` reloads the winner.
    const KernelBackend* detected = detect();
    if (g_active.compare_exchange_strong(backend, detected,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire))
      backend = detected;
  }
  return *backend;
}

bool select_backend(std::string_view name) {
  if (name.empty() || name == "auto") {
    g_active.store(detect(), std::memory_order_release);
    return true;
  }
  const KernelBackend* backend = find_kernel_backend(name);
  if (backend == nullptr || !backend->supported()) return false;
  g_active.store(backend, std::memory_order_release);
  return true;
}

}  // namespace memhd::common

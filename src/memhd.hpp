// Umbrella header: the full public API of the MEMHD library.
//
//   #include "src/memhd.hpp"
//   link against memhd::memhd
//
// Individual headers remain includable on their own; this is a convenience
// for applications.
//
// ## The api:: layer — start here
//
// Every model in the library (MEMHD and the four Table-I baselines) sits
// behind one batch-first interface, api::Classifier, built through the
// string-keyed registry:
//
//   api::ModelOptions opts;                  // one config for all models
//   opts.dim = 128; opts.columns = 128; opts.epochs = 30;
//   auto clf = api::make("memhd", train.num_features(),
//                        train.num_classes(), opts);
//   clf->fit(train, &test);
//   auto labels = clf->predict_batch(test.features());   // fused batch MVM
//   double acc  = clf->evaluate(test);
//   clf->save("model.mhd");                  // tagged, kind-dispatched
//   auto back   = api::load("model.mhd");    // bit-exact reload
//
// predict_batch is bit-identical to per-sample predict() for every
// registered model (tests/api/ asserts it), so callers batch freely.
//
// ### Choosing a model (api::list_models())
//
//   "memhd"    — the paper's contribution: multi-centroid AM sized DxC to
//                fill one IMC array, clustering init + quantization-aware
//                training. Best accuracy per bit; the default choice.
//   "basichdc" — projection encoding, one vector per class, single-pass.
//                The IMC baseline: cheapest to train, weakest on
//                multi-modal classes.
//   "quanthd"  — ID-Level encoding + quantization-aware iterative training
//                (the single-centroid scheme MEMHD generalizes).
//   "lehdc"    — BNN-style gradient training; strongest single-centroid
//                accuracy, slowest fit.
//   "searchd"  — k*N multi-model AM, fully binary single-pass training;
//                large memory (N=64), fast fit, modest accuracy.
//
// api::model_infos() carries each row's Table-I keywords and memory
// formulas; Classifier::memory() evaluates them for a concrete instance.
//
// ### Serving (api::BatchServer)
//
// The micro-batching front end for query-at-a-time traffic: submit()
// returns a future, requests batch up for at most {max_batch, max_delay},
// and each batch runs one fused predict_batch. flush() cuts a batch
// synchronously (deterministic tests, manual mode).
//
// ## Batch engine underneath
//
// Every inference surface has a batched, cache-blocked counterpart that is
// bit-identical to its per-query form and substantially faster (the blocked
// kernels live in src/common/bitops_batch.hpp and carry their own runtime
// CPU dispatch):
//
//   common::blocked_popcount_scores / blocked_dot_argmax / BatchScorer
//       — the engine: BitMatrix x query-batch AND/XOR-popcount scoring and
//         fused winner-take-all recall; BatchScorer amortizes the kernel's
//         row repack across many batches (rebuild it when the AM changes).
//   search::CascadeSearcher — coarse-to-fine recall for many-centroid AMs:
//       bit-sampled prescreen plane + exact shortlist rescore
//       (BatchScorer::scores_rows), approximate unless the shortlist covers
//       the plane (ModelOptions::cascade* knobs).
//   core::MultiCentroidAM::scores_batch / predict_batch
//   hdc::AssociativeMemory::scores_batch / predict_batch
//   hdc::ProjectionEncoder::encode_batch        (feature-major kernel)
//   core::MemhdModel::predict_batch             (encode + search pipeline)
//   imc::PartitionedAm::scores_batch / predict_batch
//   baselines::*::predict_batch / scores_batch  (all four, via the base
//       BaselineModel contract the api:: adapters drive)
//
// The per-query entry points remain and are thin equivalents; evaluation
// loops and the QAT trainer route through the batch engine internally.
// MEMHD_NUM_THREADS caps the worker pool used for query-block parallelism.
//
// Models that need more than the generic contract (MEMHD's online update()
// and adapt(), the IMC deployment pipeline's encoder()/am()) are reachable
// through the adapters in src/api/adapters.hpp or the concrete classes
// below.
//
// ## Online learning (src/online/)
//
// Deployed models keep learning without pausing the serving path:
// Classifier::partial_fit() does mispredict-driven centroid updates and
// appends never-seen classes; online::ModelStore wraps a classifier in
// copy-on-write version snapshots (train a private clone, publish()
// atomically, swap()/rollback() instantly). ModelStore is an
// api::ModelSource, so api::BatchServer pins one immutable version per
// batch cut — hot swap under live traffic, no torn batches. The TCP tier
// in src/serve/ (not part of this umbrella; include its headers directly)
// exposes swap/rollback/inventory over HTTP and the binary admin frame.
#pragma once

// Substrate
#include "src/common/bit_matrix.hpp"
#include "src/common/bit_vector.hpp"
#include "src/common/bitops_batch.hpp"
#include "src/common/cli.hpp"
#include "src/common/kernels/backend.hpp"
#include "src/common/csv.hpp"
#include "src/common/log.hpp"
#include "src/common/matrix.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/common/table.hpp"

// Data
#include "src/data/dataset.hpp"
#include "src/data/loaders.hpp"
#include "src/data/scaling.hpp"
#include "src/data/synthetic.hpp"

// Clustering
#include "src/clustering/kmeans.hpp"

// Coarse-to-fine associative search (prescreen + exact shortlist rescore)
#include "src/search/cascade.hpp"

// HDC toolbox
#include "src/hdc/associative_memory.hpp"
#include "src/hdc/binding.hpp"
#include "src/hdc/bundling.hpp"
#include "src/hdc/encoded_dataset.hpp"
#include "src/hdc/id_level_encoder.hpp"
#include "src/hdc/ngram_encoder.hpp"
#include "src/hdc/projection_encoder.hpp"
#include "src/hdc/record_encoder.hpp"
#include "src/hdc/similarity.hpp"
#include "src/hdc/trainers.hpp"

// Baselines
#include "src/baselines/baseline.hpp"
#include "src/baselines/basic_hdc.hpp"
#include "src/baselines/lehdc.hpp"
#include "src/baselines/quanthd.hpp"
#include "src/baselines/searchd.hpp"

// MEMHD core (the paper's contribution)
#include "src/core/config.hpp"
#include "src/core/initializer.hpp"
#include "src/core/memory_model.hpp"
#include "src/core/model.hpp"
#include "src/core/multi_centroid_am.hpp"
#include "src/core/qat_trainer.hpp"
#include "src/core/serialize.hpp"

// Unified public surface (registry, adapters, serve front end)
#include "src/api/adapters.hpp"
#include "src/api/batch_server.hpp"
#include "src/api/classifier.hpp"
#include "src/api/model_source.hpp"
#include "src/api/options.hpp"
#include "src/api/registry.hpp"

// Online learning (partial_fit + COW versioning + hot swap)
#include "src/online/model_store.hpp"
#include "src/online/version.hpp"

// IMC substrate
#include "src/imc/cost_model.hpp"
#include "src/imc/imc_array.hpp"
#include "src/imc/mapping.hpp"
#include "src/imc/noise.hpp"
#include "src/imc/partitioned_search.hpp"
#include "src/imc/pipeline.hpp"
#include "src/imc/robustness.hpp"
#include "src/imc/scheduler.hpp"

#include "src/core/initializer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/clustering/kmeans.hpp"
#include "src/common/assert.hpp"
#include "src/common/log.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"

namespace memhd::core {

namespace {

using common::Rng;
using data::Label;
using hdc::EncodedDataset;

struct ClassState {
  std::vector<std::size_t> sample_indices;  // into the encoded dataset
  std::size_t budget = 0;                   // centroids assigned to the class
  common::Matrix centroids;                 // budget x D after clustering
};

/// Runs K-means for one class with its current budget. Budgets are clamped
/// to the class sample count by the caller. The class's bipolar point cloud
/// is expanded here into `cloud`, one buffer every recluster of the call
/// reuses, so the initializer holds a single cloud rather than one per
/// class. The assignment step inside clustering::kmeans runs through the
/// blocked clustering::assign_batch kernel, which splits even a small
/// per-class cloud across the thread pool.
void recluster(ClassState& st, const EncodedDataset& train,
               const MemhdConfig& cfg, Rng& rng, common::Matrix& cloud) {
  MEMHD_EXPECTS(st.budget >= 1);
  MEMHD_EXPECTS(st.budget <= st.sample_indices.size());
  clustering::KMeansConfig kc;
  kc.k = st.budget;
  kc.metric = clustering::Metric::kDotSimilarity;
  kc.seeding = clustering::Seeding::kKMeansPlusPlus;
  kc.max_iterations = cfg.kmeans_max_iterations;
  train.to_bipolar_matrix(st.sample_indices, cloud);
  st.centroids = clustering::kmeans(cloud, kc, rng).centroids;
}

/// Confusion matrix of the FP AM over the training set (paper validates the
/// pre-quantization model during allocation, Fig. 2-(a)), scored as one
/// batch.
common::ConfusionMatrix validate_fp(const MultiCentroidAM& am,
                                    const EncodedDataset& train) {
  common::ConfusionMatrix cm(am.num_classes());
  const auto predicted = am.predict_fp_batch(train.hypervectors);
  for (std::size_t i = 0; i < train.size(); ++i)
    cm.add(train.labels[i], predicted[i]);
  return cm;
}

/// Distributes `remaining` new columns across classes according to the
/// allocation policy. Returns per-class extra budget; the sum is <=
/// remaining and > 0 whenever any class can still absorb a centroid.
std::vector<std::size_t> plan_allocation(
    const std::vector<std::size_t>& errors,
    const std::vector<ClassState>& classes, std::size_t remaining,
    AllocationPolicy policy) {
  const std::size_t k = classes.size();
  std::vector<std::size_t> extra(k, 0);
  const auto capacity_left = [&](std::size_t c) {
    // K-means cannot make more clusters than samples.
    return classes[c].sample_indices.size() -
           std::min(classes[c].sample_indices.size(),
                    classes[c].budget + extra[c]);
  };

  if (policy == AllocationPolicy::kEven) {
    // Round-robin regardless of confusion.
    std::size_t given = 0;
    for (std::size_t round = 0; given < remaining; ++round) {
      bool any = false;
      for (std::size_t c = 0; c < k && given < remaining; ++c) {
        if (capacity_left(c) > 0) {
          ++extra[c];
          ++given;
          any = true;
        }
      }
      if (!any) break;
    }
    return extra;
  }

  if (policy == AllocationPolicy::kGreedyOne) {
    // One column to the class with the most errors (that can absorb it).
    std::size_t best = k;
    for (std::size_t c = 0; c < k; ++c) {
      if (capacity_left(c) == 0) continue;
      if (best == k || errors[c] > errors[best]) best = c;
    }
    if (best < k) extra[best] = 1;
    return extra;
  }

  // kProportional: split the whole remainder by error share this round.
  const std::size_t total_err =
      std::accumulate(errors.begin(), errors.end(), std::size_t{0});
  if (total_err == 0) {
    // Perfect validation: fall back to even spreading so the loop still
    // terminates with a fully utilized AM.
    return plan_allocation(errors, classes, remaining,
                           AllocationPolicy::kEven);
  }
  std::size_t given = 0;
  for (std::size_t c = 0; c < k; ++c) {
    const std::size_t want = remaining * errors[c] / total_err;
    const std::size_t take = std::min(want, capacity_left(c));
    extra[c] = take;
    given += take;
  }
  if (given == 0) {
    // Rounding gave nobody anything; give one to the worst absorbable class.
    return plan_allocation(errors, classes, remaining,
                           AllocationPolicy::kGreedyOne);
  }
  return extra;
}

std::vector<ClassState> build_class_states(const EncodedDataset& train,
                                           std::size_t num_classes) {
  std::vector<ClassState> classes(num_classes);
  for (std::size_t c = 0; c < num_classes; ++c) {
    classes[c].sample_indices = train.indices_of_class(static_cast<Label>(c));
    MEMHD_EXPECTS(!classes[c].sample_indices.empty());
  }
  return classes;
}

}  // namespace

std::size_t initial_clusters_per_class(std::size_t columns,
                                       std::size_t num_classes, double ratio) {
  MEMHD_EXPECTS(num_classes >= 1);
  MEMHD_EXPECTS(columns >= num_classes);
  MEMHD_EXPECTS(ratio > 0.0 && ratio <= 1.0);
  const auto n = static_cast<std::size_t>(
      std::floor(ratio * static_cast<double>(columns) /
                 static_cast<double>(num_classes)));
  return std::max<std::size_t>(1, std::min(n, columns / num_classes));
}

MultiCentroidAM initialize_clustering(const EncodedDataset& train,
                                      const MemhdConfig& cfg,
                                      InitializerReport* report) {
  const std::size_t k = train.num_classes;
  MultiCentroidAM am(k, train.dim, cfg.columns);
  Rng rng(cfg.seed ^ 0xC1C1C1C1ULL);

  auto classes = build_class_states(train, k);
  common::Matrix cloud;  // the clustered class's bipolar points

  // Phase 1: class-wise clustering with n columns per class.
  const std::size_t n = initial_clusters_per_class(cfg.columns, k,
                                                   cfg.initial_ratio);
  for (auto& st : classes) {
    st.budget = std::min(n, st.sample_indices.size());
    recluster(st, train, cfg, rng, cloud);
  }

  std::size_t used = 0;
  for (const auto& st : classes) used += st.budget;
  if (report != nullptr) {
    report->initial_columns = used;
    report->round_accuracy.clear();
    report->allocation_rounds = 0;
  }

  // Phase 2: confusion-driven allocation of the remaining columns.
  while (used < cfg.columns) {
    // Snapshot the current AM on the real column budget for validation.
    // (Slots beyond `used` are still unassigned; validation only consults
    // assigned ones via predict_fp_batch.)
    MultiCentroidAM probe(k, train.dim, cfg.columns);
    {
      std::size_t col = 0;
      for (std::size_t c = 0; c < k; ++c)
        for (std::size_t m = 0; m < classes[c].budget; ++m, ++col)
          probe.set_centroid(col, static_cast<Label>(c),
                             classes[c].centroids.row(m));
    }
    const auto cm = validate_fp(probe, train);
    if (report != nullptr) {
      report->round_accuracy.push_back(cm.accuracy());
      ++report->allocation_rounds;
    }

    const auto extra = plan_allocation(cm.errors_per_class(), classes,
                                       cfg.columns - used, cfg.allocation);
    const std::size_t granted =
        std::accumulate(extra.begin(), extra.end(), std::size_t{0});
    if (granted == 0) {
      // No class can absorb more centroids (every class has as many
      // centroids as samples; tiny datasets). K-means cannot split further,
      // so the materialization below pads the leftover slots with copies
      // of existing centroids. Keeps full utilization.
      MEMHD_LOG_WARN(
          "cluster allocation stalled with %zu columns left; duplicating",
          cfg.columns - used);
      break;
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (extra[c] == 0) continue;
      classes[c].budget += extra[c];
      used += extra[c];
      recluster(classes[c], train, cfg, rng, cloud);
    }
  }

  // Materialize into the AM. If allocation stalled (pathological small
  // datasets), pad the leftover slots round-robin over the classes in index
  // order (class 0, 1, 2, ...), each slot copying one of its class's
  // existing centroids, so the array is still fully utilized.
  {
    std::size_t col = 0;
    for (std::size_t c = 0; c < k; ++c)
      for (std::size_t m = 0; m < classes[c].budget; ++m, ++col)
        am.set_centroid(col, static_cast<Label>(c),
                        classes[c].centroids.row(m));
    std::size_t pad_class = 0;
    while (col < cfg.columns) {
      const auto& st = classes[pad_class % k];
      am.set_centroid(col, static_cast<Label>(pad_class % k),
                      st.centroids.row(col % st.budget));
      ++col;
      ++pad_class;
    }
  }

  am.normalize(cfg.normalization);
  am.binarize();

  if (report != nullptr) {
    report->centroids_per_class.assign(k, 0);
    for (std::size_t c = 0; c < k; ++c)
      report->centroids_per_class[c] = am.centroids_per_class(
          static_cast<Label>(c));
  }
  MEMHD_ENSURES(am.fully_assigned());
  return am;
}

MultiCentroidAM initialize_random_sampling(const EncodedDataset& train,
                                           const MemhdConfig& cfg,
                                           InitializerReport* report) {
  const std::size_t k = train.num_classes;
  MultiCentroidAM am(k, train.dim, cfg.columns);
  Rng rng(cfg.seed ^ 0x5A5A5A5AULL);

  // Even split of the C columns across classes (base + remainder).
  const std::size_t base = cfg.columns / k;
  const std::size_t rem = cfg.columns % k;

  std::size_t col = 0;
  std::vector<float> bipolar;
  for (std::size_t c = 0; c < k; ++c) {
    const auto idx = train.indices_of_class(static_cast<Label>(c));
    MEMHD_EXPECTS(!idx.empty());
    const std::size_t budget = base + (c < rem ? 1 : 0);
    for (std::size_t m = 0; m < budget; ++m, ++col) {
      const std::size_t pick = idx[rng.uniform_index(idx.size())];
      bipolar.clear();
      train.hypervectors[pick].to_bipolar(bipolar);
      am.set_centroid(col, static_cast<Label>(c), bipolar);
    }
  }
  MEMHD_ENSURES(col == cfg.columns);

  am.normalize(cfg.normalization);
  am.binarize();

  if (report != nullptr) {
    report->initial_columns = cfg.columns;
    report->allocation_rounds = 0;
    report->round_accuracy.clear();
    report->centroids_per_class.assign(k, 0);
    for (std::size_t c = 0; c < k; ++c)
      report->centroids_per_class[c] =
          am.centroids_per_class(static_cast<Label>(c));
  }
  return am;
}

MultiCentroidAM initialize(const EncodedDataset& train, const MemhdConfig& cfg,
                           InitializerReport* report) {
  switch (cfg.init) {
    case InitMethod::kClustering:
      return initialize_clustering(train, cfg, report);
    case InitMethod::kRandomSampling:
      return initialize_random_sampling(train, cfg, report);
  }
  return initialize_clustering(train, cfg, report);
}

}  // namespace memhd::core

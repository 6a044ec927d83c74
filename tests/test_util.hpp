// Shared fixtures: small, fast synthetic workloads for unit tests.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "src/data/dataset.hpp"
#include "src/data/synthetic.hpp"
#include "src/hdc/encoded_dataset.hpp"

namespace memhd::testing {

/// Tiny, well-separated multi-modal task: 4 classes x 3 modes, 64 features.
/// Fast enough for per-test generation; hard enough that multi-centroid
/// beats single-centroid.
data::TrainTestSplit tiny_multimodal(std::uint64_t seed = 7,
                                     std::size_t train_per_class = 60,
                                     std::size_t test_per_class = 30);

/// Unimodal, trivially separable 3-class task (for "learns at all" floors).
data::TrainTestSplit tiny_separable(std::uint64_t seed = 11);

/// Hard multi-modal task: class centers nearly coincide while each class's
/// modes are far apart, so a class is a union of scattered clusters. A
/// single averaged class vector collapses toward the shared center (near
/// chance); per-mode centroids separate cleanly. This is the regime that
/// motivates the multi-centroid AM.
data::TrainTestSplit tiny_hard_multimodal(std::uint64_t seed = 7,
                                          std::size_t train_per_class = 100,
                                          std::size_t test_per_class = 50);

/// Random encoded dataset with the given shape (labels uniform).
hdc::EncodedDataset random_encoded(std::size_t n, std::size_t dim,
                                   std::size_t num_classes,
                                   std::uint64_t seed = 3);

/// Clustered encoded dataset: per class, `modes` random prototype HVs;
/// samples are prototypes with `noise_bits` random flips. The canonical
/// input for initializer / QAT tests (no float encoder involved).
hdc::EncodedDataset clustered_encoded(std::size_t per_class, std::size_t dim,
                                      std::size_t num_classes,
                                      std::size_t modes,
                                      std::size_t noise_bits,
                                      std::uint64_t seed = 5);

/// `name` under the system temp directory with this process's id
/// appended: ctest runs each test binary at two pool sizes at once, so a
/// temp-file name fixed per test would be shared by the two processes.
std::string temp_path(const std::string& name);

/// Lower-case hex of the first `n` bytes of `bytes` (all of them if
/// shorter): the form the on-disk layout pins compare against.
std::string hex_prefix(const std::string& bytes, std::size_t n);

/// Checks that a loader with stream and path overloads rejects `bytes`
/// through both with a std::runtime_error whose message contains `needle`.
/// `load` is called once with a std::istream& and once with a path.
template <typename Load>
void expect_load_error(const std::string& bytes, const std::string& needle,
                       Load load) {
  const auto check = [&](auto&& source, const char* overload) {
    try {
      load(source);
      ADD_FAILURE() << overload << " overload loaded the bytes; want "
                    << needle;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << overload << ": " << e.what();
    }
  };
  std::istringstream in(bytes, std::ios::binary);
  check(static_cast<std::istream&>(in), "stream");
  // One file per test and process: ctest runs the binaries in parallel.
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string path = temp_path(std::string(test->test_suite_name()) +
                                     "." + test->name() + ".bin");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  check(path, "path");
  std::remove(path.c_str());
}

}  // namespace memhd::testing

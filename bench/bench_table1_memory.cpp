// Table I: memory requirements of the baseline binary HDC models and MEMHD.
//
// Rows are driven by the model registry: api::model_infos() supplies every
// model's kind, keywords and formula strings, and core::memory_requirement
// evaluates the formula at the paper's representative shape (the same
// arithmetic Classifier::memory() performs on a live instance, minus the
// instance — no encoders are allocated, so this binary is instant at any
// scale). Adding a registry entry adds a row.
#include "bench_common.hpp"

namespace {

using namespace memhd;

struct DatasetGeometry {
  const char* name;
  std::size_t features;
  std::size_t classes;
};

constexpr DatasetGeometry kGeometries[] = {
    {"MNIST", 784, 10}, {"FMNIST", 784, 10}, {"ISOLET", 617, 26}};

/// Representative D (and C for MEMHD) used in the paper's evaluation.
api::ModelOptions representative_options(core::ModelKind kind) {
  api::ModelOptions opts;
  switch (kind) {
    case core::ModelKind::kSearcHD: opts.dim = 8000; break;
    case core::ModelKind::kQuantHD: opts.dim = 1600; break;
    case core::ModelKind::kLeHDC: opts.dim = 400; break;
    case core::ModelKind::kBasicHDC: opts.dim = 10240; break;
    case core::ModelKind::kMemhd:
      opts.dim = 128;
      opts.columns = 128;
      break;
  }
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  common::CliParser cli(
      "Table I reproduction: memory requirements (bits -> KB) of SearcHD, "
      "QuantHD, LeHDC, BasicHDC and MEMHD.");
  bench::add_common_flags(cli);
  if (!cli.parse(argc, argv)) return 1;
  const auto ctx = bench::make_context(cli);

  std::printf("=== Table I: memory requirements of HDC models ===\n");
  std::printf("L = 256 levels, N = 64 (SearcHD), D per model as evaluated\n\n");

  common::CsvWriter csv(bench::csv_path(ctx, "table1_memory.csv"));
  csv.write_header({"dataset", "model", "dim", "columns", "encoder_kb",
                    "am_kb", "total_kb", "resident_kb"});

  for (const auto& geo : kGeometries) {
    // "Total (KB)" is the paper's Table I figure: model bits, what an IMC
    // deployment stores. "Resident (KB)" is what this software runtime
    // actually keeps in RAM (packed rows + the AM's float shadow) — the
    // column the rematerialized rows collapse.
    common::TablePrinter table({"Model", "Keywords", "EM formula",
                                "AM formula", "D", "EM (KB)", "AM (KB)",
                                "Total (KB)", "Resident (KB)"});
    for (const auto& info : api::model_infos()) {
      const auto opts = representative_options(info.kind);
      core::MemoryParams p;
      p.num_features = geo.features;
      p.num_classes = geo.classes;
      p.dim = opts.dim;
      p.columns = info.kind == core::ModelKind::kMemhd ? opts.columns : 0;
      p.num_levels = opts.num_levels;
      p.n_models = opts.n_models;
      const auto mem = core::memory_requirement(info.kind, p);
      const char* display = core::model_name(info.kind);
      table.add_row({display, info.keywords, info.em_formula,
                     info.am_formula, std::to_string(opts.dim),
                     common::format_double(mem.encoder_kb(), 1),
                     common::format_double(mem.am_kb(), 1),
                     common::format_double(mem.total_kb(), 1),
                     common::format_double(mem.resident_kb(), 1)});
      csv.write_row({geo.name, display, std::to_string(opts.dim),
                     std::to_string(p.columns),
                     common::format_double(mem.encoder_kb(), 3),
                     common::format_double(mem.am_kb(), 3),
                     common::format_double(mem.total_kb(), 3),
                     common::format_double(mem.resident_kb(), 3)});
      // Projection-encoder models get a second row with the rematerialized
      // basis: identical model bits (same Table I entry), seed-only encoder
      // residency.
      if (info.kind == core::ModelKind::kBasicHDC ||
          info.kind == core::ModelKind::kMemhd) {
        auto rp = p;
        rp.basis = hdc::BasisKind::kRematerialized;
        const auto rmem = core::memory_requirement(info.kind, rp);
        const std::string rdisplay = std::string(display) + " (remat)";
        table.add_row({rdisplay.c_str(), info.keywords, info.em_formula,
                       info.am_formula, std::to_string(opts.dim),
                       common::format_double(rmem.encoder_kb(), 1),
                       common::format_double(rmem.am_kb(), 1),
                       common::format_double(rmem.total_kb(), 1),
                       common::format_double(rmem.resident_kb(), 1)});
        csv.write_row({geo.name, rdisplay, std::to_string(opts.dim),
                       std::to_string(rp.columns),
                       common::format_double(rmem.encoder_kb(), 3),
                       common::format_double(rmem.am_kb(), 3),
                       common::format_double(rmem.total_kb(), 3),
                       common::format_double(rmem.resident_kb(), 3)});
      }
    }
    std::printf("--- %s (f = %zu, k = %zu) ---\n", geo.name, geo.features,
                geo.classes);
    table.print();
    std::printf("\n");
  }

  std::printf("CSV written to %s\n",
              bench::csv_path(ctx, "table1_memory.csv").c_str());
  return 0;
}

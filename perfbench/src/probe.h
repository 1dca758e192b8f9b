// Layer attribution of the traced runs. The production entry points
// (AnnotateTypesRobustBatch, the daemon) run each layer internally, so the
// traced run re-runs a sample of the workload's own tables single-threaded
// through each module's public functions, and replays the encoder's ops as
// standalone nn/transformer objects at the workload's sequence lengths.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "doduo/core/annotator.h"
#include "doduo/core/model_io.h"
#include "doduo/table/serializer.h"
#include "doduo/transformer/config.h"
#include "trace.h"

namespace perfbench {

/// The encoder inputs the robust annotate path builds for a table:
/// sanitized, skipped columns dropped, chunked under the token budget.
struct SerializedShape {
  std::vector<doduo::table::SerializedTable> chunks;
  int skipped_columns = 0;
  double sanitize_us = 0.0;
  double serialize_us = 0.0;
};
SerializedShape SerializeLikeAnnotator(
    const doduo::table::Table& table,
    const doduo::table::TableSerializer& serializer,
    const doduo::core::AnnotateOptions& options, Tracer* tracer = nullptr,
    uint64_t id = 0);

/// Multiply-adds x2 of one BertModel::Forward at sequence length `seq`
/// (QKV, attention scores and context, out-proj, both FFN GEMMs).
double EncoderFlops(const doduo::transformer::TransformerConfig& config,
                    int64_t seq);

/// Sums over the probed tables.
struct LayerProbe {
  int64_t tables = 0;
  int64_t columns = 0;
  int64_t skipped_columns = 0;
  std::vector<double> tokens;  // per table
  std::vector<int> seq_lengths;  // per encoder call
  double sanitize_us = 0.0;
  double serialize_us = 0.0;
  double forward_us = 0.0;        // BertModel::Forward
  double forward_types_us = 0.0;  // DoduoModel::ForwardTypes
  double annotate_us = 0.0;       // Annotator::AnnotateTypesRobust
  double forward_flops = 0.0;
};

class Prober {
 public:
  /// `model` must outlive the prober and be used by no other thread.
  Prober(doduo::core::LoadedModel* model, Tracer* tracer);

  /// Runs `table` through each layer's public call in turn, then through
  /// AnnotateTypesRobust; returns that call's encoded outcomes.
  std::string Probe(const doduo::table::Table& table,
                    const doduo::core::AnnotateOptions& options, uint64_t id);

  const LayerProbe& totals() const { return totals_; }

 private:
  doduo::core::LoadedModel* model_;
  doduo::core::Annotator annotator_;
  Tracer* tracer_;
  LayerProbe totals_;
};

/// Per-op totals of the shape replay (µs and FLOPs summed over all replayed
/// sequences), keyed by the op names of the transformer.* metrics.
struct ReplayTotals {
  std::map<std::string, double> us;
  std::map<std::string, double> flops;
};
ReplayTotals ReplayShapes(const doduo::transformer::TransformerConfig& config,
                          const std::vector<int>& seq_lengths, uint64_t seed,
                          Tracer* tracer);

/// Adds the table.*, transformer.* and core.{heads,annotate_overhead}
/// metrics.
void AddProbeMetrics(const LayerProbe& probe, const ReplayTotals& replay,
                     Metrics* metrics);

/// Prints every µs-per-table metric with its share of `root_us_per_table`
/// and its GFLOP/s (when it has one) to stderr.
void PrintLayerTable(const Metrics& metrics, double root_us_per_table);

/// The EncodeOutcomesPayload bytes of `outcomes`: labels, confidence bits,
/// skip reasons and abstention, as the wire carries them.
std::string EncodeOutcomes(
    const std::vector<doduo::core::ColumnOutcome>& outcomes);

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_

#include "doduo/core/model_io.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <utility>

#include "doduo/nn/serialize.h"
#include "doduo/util/metrics.h"
#include "doduo/util/rng.h"

namespace doduo::core {

namespace {

using util::Status;

Status SaveLabels(const std::string& path, const table::LabelVocab& vocab) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path);
  for (int i = 0; i < vocab.size(); ++i) out << vocab.Name(i) << "\n";
  return Status::Ok();
}

util::Result<table::LabelVocab> LoadLabels(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  table::LabelVocab vocab;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) vocab.AddLabel(line);
  }
  return vocab;
}

Status SaveConfig(const std::string& path, const DoduoConfig& config) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path);
  out << "vocab_size=" << config.encoder.vocab_size << "\n"
      << "max_positions=" << config.encoder.max_positions << "\n"
      << "hidden_dim=" << config.encoder.hidden_dim << "\n"
      << "num_layers=" << config.encoder.num_layers << "\n"
      << "num_heads=" << config.encoder.num_heads << "\n"
      << "ffn_dim=" << config.encoder.ffn_dim << "\n"
      << "num_types=" << config.num_types << "\n"
      << "num_relations=" << config.num_relations << "\n"
      << "multi_label=" << (config.multi_label ? 1 : 0) << "\n"
      << "max_tokens_per_column=" << config.serializer.max_tokens_per_column
      << "\n"
      << "max_total_tokens=" << config.serializer.max_total_tokens << "\n"
      << "calibration_temperature="
      // max_digits10 so the fitted temperature round-trips bit-exact
      // through the text config.
      << std::setprecision(std::numeric_limits<double>::max_digits10)
      << config.calibration_temperature << "\n";
  return Status::Ok();
}

util::Result<DoduoConfig> LoadConfig(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  DoduoConfig config;
  config.encoder.dropout = 0.0f;  // inference only
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    const long value = std::strtol(line.c_str() + eq + 1, nullptr, 10);
    if (key == "vocab_size") config.encoder.vocab_size = value;
    else if (key == "max_positions") config.encoder.max_positions = value;
    else if (key == "hidden_dim") config.encoder.hidden_dim = value;
    else if (key == "num_layers") config.encoder.num_layers = value;
    else if (key == "num_heads") config.encoder.num_heads = value;
    else if (key == "ffn_dim") config.encoder.ffn_dim = value;
    else if (key == "num_types") config.num_types = value;
    else if (key == "num_relations") config.num_relations = value;
    else if (key == "multi_label") config.multi_label = value != 0;
    else if (key == "max_tokens_per_column")
      config.serializer.max_tokens_per_column = value;
    else if (key == "max_total_tokens")
      config.serializer.max_total_tokens = value;
    else if (key == "calibration_temperature") {
      // The one non-integer config entry; strtol would floor it to 1.
      const double temperature = std::strtod(line.c_str() + eq + 1, nullptr);
      if (temperature > 0.0) config.calibration_temperature = temperature;
    }
  }
  if (config.num_relations == 0) {
    config.tasks = TaskSet::kTypesOnly;
  }
  return config;
}

}  // namespace

util::Result<std::unique_ptr<LoadedModel>> LoadModelDir(
    const std::string& dir) {
  auto loaded = std::make_unique<LoadedModel>();
  auto config = LoadConfig(dir + "/config.txt");
  if (!config.ok()) return config.status();
  loaded->config = config.value();

  auto vocab = text::Vocab::Load(dir + "/vocab.txt");
  if (!vocab.ok()) return vocab.status();
  loaded->vocab = std::move(vocab).value();

  auto types = LoadLabels(dir + "/types.txt");
  if (!types.ok()) return types.status();
  loaded->types = std::move(types).value();
  if (loaded->config.num_relations > 0) {
    auto relations = LoadLabels(dir + "/relations.txt");
    if (!relations.ok()) return relations.status();
    loaded->relations = std::move(relations).value();
  }

  util::Rng rng(1);
  loaded->model = std::make_unique<DoduoModel>(loaded->config, &rng);
  static util::Histogram* const checkpoint_us =
      util::GetHistogram("load.checkpoint_us");
  Status status;
  {
    util::ScopedTimer timer(checkpoint_us, "load.checkpoint_us");
    status =
        nn::LoadParameters(dir + "/model.ckpt", loaded->model->Parameters());
  }
  if (!status.ok()) return status;
  loaded->model->set_training(false);
  loaded->tokenizer =
      std::make_unique<text::WordPieceTokenizer>(&loaded->vocab);
  loaded->serializer = std::make_unique<table::TableSerializer>(
      loaded->tokenizer.get(), loaded->config.serializer);
  return loaded;
}

util::Status SaveModelDir(const std::string& dir, DoduoModel* model,
                          const text::Vocab& vocab,
                          const table::LabelVocab& types,
                          const table::LabelVocab& relations) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create " + dir + ": " + ec.message());
  }
  const Status ckpt_status =
      nn::SaveParametersV2(dir + "/model.ckpt", model->Parameters());
  for (const Status& status :
       {ckpt_status, vocab.Save(dir + "/vocab.txt"),
        SaveLabels(dir + "/types.txt", types),
        SaveLabels(dir + "/relations.txt", relations),
        SaveConfig(dir + "/config.txt", model->config())}) {
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

}  // namespace doduo::core

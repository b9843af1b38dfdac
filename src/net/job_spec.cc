#include "net/job_spec.h"

#include "util/serde.h"

namespace qcm {

std::string EncodeJobSpec(const ClusterJobSpec& spec) {
  Encoder enc;
  enc.PutString(spec.input);
  enc.PutString(spec.gen_planted);
  enc.PutU64(spec.seed);
  EncodeEngineConfig(spec.config, &enc);
  enc.PutString(spec.kcore_mask);
  return enc.Release();
}

Status DecodeJobSpec(const std::string& blob, ClusterJobSpec* spec) {
  Decoder dec(blob);
  QCM_RETURN_IF_ERROR(dec.GetString(&spec->input));
  QCM_RETURN_IF_ERROR(dec.GetString(&spec->gen_planted));
  QCM_RETURN_IF_ERROR(dec.GetU64(&spec->seed));
  QCM_RETURN_IF_ERROR(DecodeEngineConfig(&dec, &spec->config));
  QCM_RETURN_IF_ERROR(dec.GetString(&spec->kcore_mask));
  if (!dec.Done()) return Status::Corruption("trailing bytes in job spec");
  if (spec->input.empty() == spec->gen_planted.empty()) {
    return Status::InvalidArgument(
        "job spec needs exactly one of input / gen_planted");
  }
  if (!spec->kcore_mask.empty() && spec->config.graph_snapshot.empty()) {
    return Status::InvalidArgument(
        "job spec ships a k-core mask without a snapshot");
  }
  return Status::OK();
}

}  // namespace qcm

#include "net/job_spec.h"

#include "util/serde.h"

namespace qcm {

std::string EncodeJobSpec(const ClusterJobSpec& spec) {
  Encoder enc;
  EncodeEngineConfig(spec.config, &enc);
  enc.PutString(spec.kcore_mask);
  return enc.Release();
}

Status DecodeJobSpec(const std::string& blob, ClusterJobSpec* spec) {
  Decoder dec(blob);
  QCM_RETURN_IF_ERROR(DecodeEngineConfig(&dec, &spec->config));
  QCM_RETURN_IF_ERROR(dec.GetString(&spec->kcore_mask));
  if (!dec.Done()) return Status::Corruption("trailing bytes in job spec");
  if (spec->config.graph_snapshot.empty()) {
    return Status::InvalidArgument(
        "job spec names no graph snapshot (workers map the launcher's "
        ".qcsr; there is no other graph source)");
  }
  return Status::OK();
}

}  // namespace qcm

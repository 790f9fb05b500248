#include "spinner/config.h"

#include "common/result.h"
#include "common/string_util.h"

namespace spinner {

Status SpinnerConfig::Validate() const {
  if (num_partitions < 1) {
    return Status::InvalidArgument(
        StrFormat("num_partitions must be >= 1 (got %d)", num_partitions));
  }
  if (additional_capacity <= 1.0) {
    return Status::InvalidArgument(StrFormat(
        "additional_capacity must be > 1 (Eq. 5 needs spare capacity; "
        "got %g)",
        additional_capacity));
  }
  if (halt_epsilon < 0.0) {
    return Status::InvalidArgument(
        StrFormat("halt_epsilon must be >= 0 (got %g)", halt_epsilon));
  }
  if (halt_window < 1) {
    return Status::InvalidArgument(
        StrFormat("halt_window must be >= 1 (got %d)", halt_window));
  }
  if (max_iterations < 1) {
    return Status::InvalidArgument(
        StrFormat("max_iterations must be >= 1 (got %d)", max_iterations));
  }
  SPINNER_RETURN_IF_ERROR(execution.Validate());
  if (!partition_weights.empty()) {
    if (static_cast<int>(partition_weights.size()) != num_partitions) {
      return Status::InvalidArgument(StrFormat(
          "partition_weights size (%zu) must equal num_partitions (%d)",
          partition_weights.size(), num_partitions));
    }
    for (size_t l = 0; l < partition_weights.size(); ++l) {
      if (!(partition_weights[l] > 0.0)) {
        return Status::InvalidArgument(StrFormat(
            "partition_weights[%zu] must be positive (got %g)", l,
            partition_weights[l]));
      }
    }
  }
  return Status::OK();
}

}  // namespace spinner

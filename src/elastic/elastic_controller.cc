#include "elastic/elastic_controller.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"

namespace spinner::elastic {

ElasticController::ElasticController(PartitioningSession* session,
                                     std::unique_ptr<ScalingPolicy> policy,
                                     ControllerOptions options)
    : session_(session),
      policy_(std::move(policy)),
      options_(std::move(options)),
      clock_(options_.clock ? options_.clock
                            : std::make_shared<stream::SystemClock>()) {
  SPINNER_CHECK(session_ != nullptr) << "ElasticController needs a session";
  SPINNER_CHECK(policy_ != nullptr) << "ElasticController needs a policy";
}

bool ElasticController::OnApply(const stream::IngestStats& stats) {
  ScalingSignals signals;
  signals.current_k = session_->num_partitions();
  signals.phi = stats.last_phi;
  signals.rho = stats.last_rho;
  signals.staleness_micros = stats.last_staleness_micros;
  signals.window_events = stats.events_ingested - last_events_ingested_;
  last_events_ingested_ = stats.events_ingested;
  // Absolute loads and the score come from the metrics of the apply that
  // just committed; on the ingestion thread the session is ours between
  // windows.
  const PartitionMetrics& metrics = session_->last_result().metrics;
  signals.score = metrics.score;
  signals.total_weight = metrics.total_weight;
  for (int64_t load : metrics.loads) {
    signals.max_load = std::max(signals.max_load, load);
  }
  EvaluateSignals(signals);
  return true;
}

Status ElasticController::Evaluate() {
  SPINNER_ASSIGN_OR_RETURN(PartitionMetrics metrics, session_->Metrics());
  ScalingSignals signals;
  signals.current_k = session_->num_partitions();
  signals.phi = metrics.phi;
  signals.rho = metrics.rho;
  signals.score = metrics.score;
  signals.total_weight = metrics.total_weight;
  for (int64_t load : metrics.loads) {
    signals.max_load = std::max(signals.max_load, load);
  }
  const DecisionRecord& record = EvaluateSignals(signals);
  if (!record.executed && record.action != ScalingAction::kHold &&
      options_.execute) {
    return status_;
  }
  return Status::OK();
}

const DecisionRecord& ElasticController::EvaluateSignals(
    ScalingSignals signals) {
  signals.now_micros = clock_->NowMicros();
  signals.available_capacity = available_capacity_;

  ScalingDecision decision = policy_->Decide(signals);

  DecisionRecord record;
  record.at_micros = signals.now_micros;
  record.evaluation = static_cast<int>(log_.size()) + 1;
  record.from_k = signals.current_k;
  record.action = decision.action;
  record.target_k = decision.acts() ? decision.target_k : 0;
  record.reason = std::move(decision.reason);
  record.phi = signals.phi;
  record.rho = signals.rho;
  record.max_load = signals.max_load;
  record.staleness_micros = signals.staleness_micros;

  if (decision.acts()) {
    if (!options_.execute) {
      record.outcome = "dry-run";
    } else if (!status_.ok()) {
      record.outcome = "suppressed: controller already failed";
    } else if (record.target_k == signals.current_k) {
      record.outcome = "no-op: already at target k";
    } else {
      Status status = session_->Rescale(record.target_k);
      if (status.ok() && options_.workers_per_partition > 0.0 &&
          session_->execution_mode() != ExecutionMode::kInProcess) {
        const int workers = std::max(
            1, static_cast<int>(std::lround(
                   record.target_k * options_.workers_per_partition)));
        status = session_->ResizeWorkers(workers);
      }
      if (status.ok()) {
        record.executed = true;
        ++rescales_executed_;
      } else {
        record.outcome = status.message();
        status_ = status;
      }
    }
  }
  log_.push_back(std::move(record));
  return log_.back();
}

std::string ElasticController::FormatLog() const {
  std::string out;
  for (const DecisionRecord& r : log_) {
    out += StrFormat("[%d @%lldus] k=%d %s", r.evaluation,
                     static_cast<long long>(r.at_micros), r.from_k,
                     ToString(r.action));
    if (r.action != ScalingAction::kHold) {
      out += StrFormat(" -> k=%d %s", r.target_k,
                       r.executed ? "executed" : "not-executed");
    }
    if (!r.outcome.empty()) out += " [" + r.outcome + "]";
    out += "  (" + r.reason + ")\n";
  }
  return out;
}

}  // namespace spinner::elastic

// Every svc document, rendered from a snapshot: pure functions over the
// dispatcher's snapshot structs, with no lock and no Dispatcher. The
// dispatcher takes each snapshot in one lock acquisition; the server only
// wraps the rendered document in its response envelope.
//
//   job status             `status` with a job id, `result`, report jobs[]
//   gpumbir.svc_stats/1    `stats`
//   service counters       job-less `status`, and the head of `stats`
//   chaos block            `chaos`, and stats' `chaos` object
//   gpumbir.svc_report/1   `drain`, and the examples' report files
#pragma once

#include <string>
#include <vector>

#include "svc/dispatcher.h"

namespace mbir::obs {
class JsonWriter;
class Recorder;
}  // namespace mbir::obs

namespace mbir::svc {

/// The fields of each document or block, into an open object. A job's
/// run-outcome fields appear only once it is terminal and was dispatched
/// or served from the cache.
void writeJobStatus(obs::JsonWriter& w, const JobStatus& s);
void writeServiceCounters(obs::JsonWriter& w, const Dispatcher::LiveStats& s);
void writeChaos(obs::JsonWriter& w, const Dispatcher::LiveStats& s);

/// Whole documents; the metrics registry rides along when `rec` records
/// metrics.
std::string statsJson(const Dispatcher::LiveStats& s, const obs::Recorder* rec);
std::string reportJson(const SvcReport& rep, const obs::Recorder* rec);
void writeReportJson(const std::string& path, const SvcReport& rep,
                     const obs::Recorder* rec);

/// The drain report's arithmetic over rep.jobs: totals by state, store and
/// migration counts, distributions, the modeled total and makespan, and
/// per-tenant summaries weighted from `fq`. `warm_started[i]`: job i ran
/// from a cached image (a run fact JobStatus does not carry).
void aggregateReport(SvcReport& rep, const std::vector<bool>& warm_started,
                     const store::FairQueue& fq);

}  // namespace mbir::svc

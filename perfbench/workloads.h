/// \file workloads.h
/// \brief The benchmark's three workloads (see README.md for why each one
/// exists). Each runs rounds until the run's time is up; a round sets up a
/// fresh database from the seed, runs a fixed amount of work against it and
/// then has the oracle check every answer, outside the timed regions.

#pragma once

#include "common.h"

namespace perfbench {

/// One analyst, in process: single-predicate random-range counts over a
/// 10-attribute table larger than L3, holistic mode (the Fig. 6 setting).
void RunExplore(const Options& o, Collector& c);

/// Four pipelining clients over loopback TCP: Zipf-skewed counts plus
/// 2-3-predicate conjunctions, holistic mode (the §5.8 setting).
void RunServe(const Options& o, Collector& c);

/// One client mixing reads with durable inserts and deletes, a checkpoint
/// midway, a WAL tail, and a restart from the data directory.
void RunChurn(const Options& o, Collector& c);

}  // namespace perfbench

//===--- BlockCache.cpp - Block-summary cache -------------------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "engine/BlockCache.h"

using namespace mix::engine;

std::string BlockCacheStats::str() const {
  return "hits=" + std::to_string(Hits) + " misses=" + std::to_string(Misses) +
         " inserts=" + std::to_string(Inserts) +
         " dropped=" + std::to_string(DroppedInserts);
}

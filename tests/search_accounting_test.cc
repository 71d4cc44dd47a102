// Pins the search's accounting to committed values. For EXNAIVE, EXSTR,
// DFS and GSTR, with AVF off and on, with the stop conditions off, with
// stop_var alone and with stop_tt alone, over three seeded random workloads
// and one whose initial state AVF fuses in Init (two queries with isomorphic
// bodies and different heads), every SearchStats counter and the best
// state's (cost bits, fingerprint) must equal the values recorded below.
// Work that only makes a search step cheaper leaves all of them untouched.
// stop_tt adds nothing while stop_var is armed (a triple-table view has no
// constant), hence its own rows. The Parallel suite checks that the
// parallel engine at 2 and 4 threads returns the same best as the serial
// one; SuccessorSkipTest, that GSTR reports the duplicates it skipped and
// the stop-condition violations it discarded without building them; and
// TransitionOutcomeCounterTest, that identical runs count the same
// transition-outcome hits and misses.
//
// On a mismatch the failure message prints the row the run produced, in
// the table's own syntax.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/telemetry/metrics.h"
#include "rdf/statistics.h"
#include "rdfviews.h"
#include "test_util.h"

namespace rdfviews::vsel {
namespace {

using rdfviews::testing::MustParse;
using rdfviews::testing::RandomQuery;
using rdfviews::testing::RandomStore;

/// Which stop conditions (Sec. 5.2) a run turns on.
enum class Stop { kNone, kVar, kTt };

constexpr Stop kNoStop = Stop::kNone;
constexpr Stop kStopVar = Stop::kVar;
constexpr Stop kStopTt = Stop::kTt;

struct Expected {
  const char* workload;
  StrategyKind strategy;
  bool avf;
  Stop stop;
  uint64_t created;
  uint64_t duplicates;
  uint64_t discarded;
  uint64_t explored;
  uint64_t transitions_applied;
  bool completed;
  uint64_t cost_bits;
  uint64_t fp_hi;
  uint64_t fp_lo;
};

constexpr StrategyKind kExNaive = StrategyKind::kExNaive;
constexpr StrategyKind kExStr = StrategyKind::kExStr;
constexpr StrategyKind kDfs = StrategyKind::kDfs;
constexpr StrategyKind kGstr = StrategyKind::kGstr;

// clang-format off
constexpr Expected kExpected[] = {
    {"seed501", kExNaive, false, kNoStop, 3100, 2522, 0, 579, 3100, true, 0x403b000000000000, 0xcb1771208075ec0b, 0x3ff40a91932943dc},
    {"seed501", kExNaive, false, kStopVar, 1669, 751, 675, 244, 1669, true, 0x403b000000000000, 0xcb1771208075ec0b, 0x3ff40a91932943dc},
    {"seed501", kExNaive, false, kStopTt, 1858, 911, 669, 279, 1858, true, 0x403b000000000000, 0xcb1771208075ec0b, 0x3ff40a91932943dc},
    {"seed501", kExNaive, true, kNoStop, 3257, 2263, 501, 494, 2756, true, 0x403b000000000000, 0xcb1771208075ec0b, 0x3ff40a91932943dc},
    {"seed501", kExNaive, true, kStopVar, 1677, 749, 689, 240, 1646, true, 0x403b000000000000, 0xcb1771208075ec0b, 0x3ff40a91932943dc},
    {"seed501", kExNaive, true, kStopTt, 1935, 907, 755, 274, 1830, true, 0x403b000000000000, 0xcb1771208075ec0b, 0x3ff40a91932943dc},
    {"seed501", kExStr, false, kNoStop, 1570, 992, 0, 579, 1570, true, 0x403b000000000000, 0xcb1771208075ec0b, 0x3ff40a91932943dc},
    {"seed501", kExStr, false, kStopVar, 1044, 416, 385, 244, 1044, true, 0x403b000000000000, 0xcb1771208075ec0b, 0x3ff40a91932943dc},
    {"seed501", kExStr, false, kStopTt, 1200, 522, 400, 279, 1200, true, 0x403b000000000000, 0xcb1771208075ec0b, 0x3ff40a91932943dc},
    {"seed501", kExStr, true, kNoStop, 1703, 959, 253, 492, 1450, true, 0x403b000000000000, 0xcb1771208075ec0b, 0x3ff40a91932943dc},
    {"seed501", kExStr, true, kStopVar, 1062, 416, 407, 240, 1037, true, 0x403b000000000000, 0xcb1771208075ec0b, 0x3ff40a91932943dc},
    {"seed501", kExStr, true, kStopTt, 1289, 521, 495, 274, 1190, true, 0x403b000000000000, 0xcb1771208075ec0b, 0x3ff40a91932943dc},
    {"seed501", kDfs, false, kNoStop, 1570, 992, 0, 579, 1570, true, 0x403b000000000000, 0xcb1771208075ec0b, 0x3ff40a91932943dc},
    {"seed501", kDfs, false, kStopVar, 1044, 416, 385, 244, 1044, true, 0x403b000000000000, 0xcb1771208075ec0b, 0x3ff40a91932943dc},
    {"seed501", kDfs, false, kStopTt, 1200, 522, 400, 279, 1200, true, 0x403b000000000000, 0xcb1771208075ec0b, 0x3ff40a91932943dc},
    {"seed501", kDfs, true, kNoStop, 1703, 959, 253, 492, 1450, true, 0x403b000000000000, 0xcb1771208075ec0b, 0x3ff40a91932943dc},
    {"seed501", kDfs, true, kStopVar, 1062, 416, 407, 240, 1037, true, 0x403b000000000000, 0xcb1771208075ec0b, 0x3ff40a91932943dc},
    {"seed501", kDfs, true, kStopTt, 1289, 521, 495, 274, 1190, true, 0x403b000000000000, 0xcb1771208075ec0b, 0x3ff40a91932943dc},
    {"seed501", kGstr, false, kNoStop, 455, 326, 0, 133, 455, true, 0x403b000000000000, 0xcb1771208075ec0b, 0x3ff40a91932943dc},
    {"seed501", kGstr, false, kStopVar, 412, 232, 73, 111, 412, true, 0x403b000000000000, 0xcb1771208075ec0b, 0x3ff40a91932943dc},
    {"seed501", kGstr, false, kStopTt, 455, 326, 0, 133, 455, true, 0x403b000000000000, 0xcb1771208075ec0b, 0x3ff40a91932943dc},
    {"seed501", kGstr, true, kNoStop, 465, 325, 11, 133, 454, true, 0x403b000000000000, 0xcb1771208075ec0b, 0x3ff40a91932943dc},
    {"seed501", kGstr, true, kStopVar, 416, 232, 77, 111, 411, true, 0x403b000000000000, 0xcb1771208075ec0b, 0x3ff40a91932943dc},
    {"seed501", kGstr, true, kStopTt, 465, 325, 11, 133, 454, true, 0x403b000000000000, 0xcb1771208075ec0b, 0x3ff40a91932943dc},
    {"seed502", kExNaive, false, kNoStop, 706, 549, 0, 158, 706, true, 0x406c2f5c28f5c290, 0xfece63b2e45a6dda, 0x5abd48afb68a3852},
    {"seed502", kExNaive, false, kStopVar, 286, 77, 163, 47, 286, true, 0x406c2f5c28f5c290, 0xfece63b2e45a6dda, 0x5abd48afb68a3852},
    {"seed502", kExNaive, false, kStopTt, 367, 122, 183, 63, 367, true, 0x406c2f5c28f5c290, 0xfece63b2e45a6dda, 0x5abd48afb68a3852},
    {"seed502", kExNaive, true, kNoStop, 719, 406, 204, 110, 515, true, 0x406c2f5c28f5c290, 0xfece63b2e45a6dda, 0x5abd48afb68a3852},
    {"seed502", kExNaive, true, kStopVar, 279, 69, 171, 40, 245, true, 0x406c2f5c28f5c290, 0xfece63b2e45a6dda, 0x5abd48afb68a3852},
    {"seed502", kExNaive, true, kStopTt, 390, 112, 224, 55, 321, true, 0x406c2f5c28f5c290, 0xfece63b2e45a6dda, 0x5abd48afb68a3852},
    {"seed502", kExStr, false, kNoStop, 398, 241, 0, 158, 398, true, 0x406c2f5c28f5c290, 0xfece63b2e45a6dda, 0x5abd48afb68a3852},
    {"seed502", kExStr, false, kStopVar, 189, 48, 95, 47, 189, true, 0x406c2f5c28f5c290, 0xfece63b2e45a6dda, 0x5abd48afb68a3852},
    {"seed502", kExStr, false, kStopTt, 258, 80, 116, 63, 258, true, 0x406c2f5c28f5c290, 0xfece63b2e45a6dda, 0x5abd48afb68a3852},
    {"seed502", kExStr, true, kNoStop, 480, 219, 152, 110, 328, true, 0x406c2f5c28f5c290, 0xfece63b2e45a6dda, 0x5abd48afb68a3852},
    {"seed502", kExStr, true, kStopVar, 210, 46, 125, 40, 180, true, 0x406c2f5c28f5c290, 0xfece63b2e45a6dda, 0x5abd48afb68a3852},
    {"seed502", kExStr, true, kStopTt, 312, 78, 180, 55, 248, true, 0x406c2f5c28f5c290, 0xfece63b2e45a6dda, 0x5abd48afb68a3852},
    {"seed502", kDfs, false, kNoStop, 398, 241, 0, 158, 398, true, 0x406c2f5c28f5c290, 0xfece63b2e45a6dda, 0x5abd48afb68a3852},
    {"seed502", kDfs, false, kStopVar, 189, 48, 95, 47, 189, true, 0x406c2f5c28f5c290, 0xfece63b2e45a6dda, 0x5abd48afb68a3852},
    {"seed502", kDfs, false, kStopTt, 258, 80, 116, 63, 258, true, 0x406c2f5c28f5c290, 0xfece63b2e45a6dda, 0x5abd48afb68a3852},
    {"seed502", kDfs, true, kNoStop, 480, 219, 152, 110, 328, true, 0x406c2f5c28f5c290, 0xfece63b2e45a6dda, 0x5abd48afb68a3852},
    {"seed502", kDfs, true, kStopVar, 210, 46, 125, 40, 180, true, 0x406c2f5c28f5c290, 0xfece63b2e45a6dda, 0x5abd48afb68a3852},
    {"seed502", kDfs, true, kStopTt, 312, 78, 180, 55, 248, true, 0x406c2f5c28f5c290, 0xfece63b2e45a6dda, 0x5abd48afb68a3852},
    {"seed502", kGstr, false, kNoStop, 88, 54, 0, 38, 88, true, 0x406c78a3d70a3d71, 0x51163dcb49bda2c4, 0xfaa0521644b37d7a},
    {"seed502", kGstr, false, kStopVar, 72, 26, 23, 27, 72, true, 0x406c78a3d70a3d71, 0x51163dcb49bda2c4, 0xfaa0521644b37d7a},
    {"seed502", kGstr, false, kStopTt, 88, 54, 0, 38, 88, true, 0x406c78a3d70a3d71, 0x51163dcb49bda2c4, 0xfaa0521644b37d7a},
    {"seed502", kGstr, true, kNoStop, 92, 54, 4, 38, 88, true, 0x406c2f5c28f5c290, 0xfece63b2e45a6dda, 0x5abd48afb68a3852},
    {"seed502", kGstr, true, kStopVar, 76, 26, 27, 27, 72, true, 0x406c2f5c28f5c290, 0xfece63b2e45a6dda, 0x5abd48afb68a3852},
    {"seed502", kGstr, true, kStopTt, 92, 54, 4, 38, 88, true, 0x406c2f5c28f5c290, 0xfece63b2e45a6dda, 0x5abd48afb68a3852},
    {"seed503", kExNaive, false, kNoStop, 319, 238, 0, 82, 319, true, 0x407147851eb851ec, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"seed503", kExNaive, false, kStopVar, 105, 23, 64, 19, 105, true, 0x407147851eb851ec, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"seed503", kExNaive, false, kStopTt, 151, 39, 84, 29, 151, true, 0x407147851eb851ec, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"seed503", kExNaive, true, kNoStop, 277, 127, 107, 44, 170, true, 0x407147851eb851ec, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"seed503", kExNaive, true, kStopVar, 83, 17, 55, 12, 64, true, 0x407147851eb851ec, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"seed503", kExNaive, true, kStopTt, 140, 29, 92, 20, 100, true, 0x407147851eb851ec, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"seed503", kExStr, false, kNoStop, 179, 98, 0, 82, 179, true, 0x407147851eb851ec, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"seed503", kExStr, false, kStopVar, 60, 15, 27, 19, 60, true, 0x407147851eb851ec, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"seed503", kExStr, false, kStopTt, 97, 25, 44, 29, 97, true, 0x407147851eb851ec, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"seed503", kExStr, true, kNoStop, 179, 68, 72, 40, 107, true, 0x407147851eb851ec, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"seed503", kExStr, true, kStopVar, 67, 13, 43, 12, 48, true, 0x407147851eb851ec, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"seed503", kExStr, true, kStopTt, 121, 22, 80, 20, 81, true, 0x407147851eb851ec, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"seed503", kDfs, false, kNoStop, 179, 98, 0, 82, 179, true, 0x407147851eb851ec, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"seed503", kDfs, false, kStopVar, 60, 15, 27, 19, 60, true, 0x407147851eb851ec, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"seed503", kDfs, false, kStopTt, 97, 25, 44, 29, 97, true, 0x407147851eb851ec, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"seed503", kDfs, true, kNoStop, 179, 68, 72, 40, 107, true, 0x407147851eb851ec, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"seed503", kDfs, true, kStopVar, 67, 13, 43, 12, 48, true, 0x407147851eb851ec, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"seed503", kDfs, true, kStopTt, 121, 22, 80, 20, 81, true, 0x407147851eb851ec, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"seed503", kGstr, false, kNoStop, 37, 20, 0, 21, 37, true, 0x407147851eb851ec, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"seed503", kGstr, false, kStopVar, 30, 12, 7, 15, 30, true, 0x407147851eb851ec, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"seed503", kGstr, false, kStopTt, 37, 20, 0, 21, 37, true, 0x407147851eb851ec, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"seed503", kGstr, true, kNoStop, 45, 17, 14, 18, 31, true, 0x407147851eb851ec, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"seed503", kGstr, true, kStopVar, 35, 10, 17, 12, 24, true, 0x407147851eb851ec, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"seed503", kGstr, true, kStopTt, 45, 17, 14, 18, 31, true, 0x407147851eb851ec, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"fused_s0", kExNaive, false, kNoStop, 403, 295, 0, 109, 403, true, 0x406a88f5c28f5c29, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"fused_s0", kExNaive, false, kStopVar, 121, 22, 78, 22, 121, true, 0x406a88f5c28f5c29, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"fused_s0", kExNaive, false, kStopTt, 168, 43, 94, 32, 168, true, 0x406a88f5c28f5c29, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"fused_s0", kExNaive, true, kNoStop, 21, 9, 4, 8, 16, true, 0x406a88f5c28f5c29, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"fused_s0", kExNaive, true, kStopVar, 13, 1, 8, 4, 12, true, 0x406a88f5c28f5c29, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"fused_s0", kExNaive, true, kStopTt, 17, 2, 10, 5, 14, true, 0x406a88f5c28f5c29, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"fused_s0", kExStr, false, kNoStop, 233, 125, 0, 109, 233, true, 0x406a88f5c28f5c29, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"fused_s0", kExStr, false, kStopVar, 79, 14, 44, 22, 79, true, 0x406a88f5c28f5c29, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"fused_s0", kExStr, false, kStopTt, 120, 29, 60, 32, 120, true, 0x406a88f5c28f5c29, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"fused_s0", kExStr, true, kNoStop, 15, 5, 2, 8, 12, true, 0x406a88f5c28f5c29, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"fused_s0", kExStr, true, kStopVar, 11, 1, 6, 4, 10, true, 0x406a88f5c28f5c29, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"fused_s0", kExStr, true, kStopTt, 15, 2, 8, 5, 12, true, 0x406a88f5c28f5c29, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"fused_s0", kDfs, false, kNoStop, 233, 125, 0, 109, 233, true, 0x406a88f5c28f5c29, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"fused_s0", kDfs, false, kStopVar, 79, 14, 44, 22, 79, true, 0x406a88f5c28f5c29, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"fused_s0", kDfs, false, kStopTt, 120, 29, 60, 32, 120, true, 0x406a88f5c28f5c29, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"fused_s0", kDfs, true, kNoStop, 15, 5, 2, 8, 12, true, 0x406a88f5c28f5c29, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"fused_s0", kDfs, true, kStopVar, 11, 1, 6, 4, 10, true, 0x406a88f5c28f5c29, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"fused_s0", kDfs, true, kStopTt, 15, 2, 8, 5, 12, true, 0x406a88f5c28f5c29, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"fused_s0", kGstr, false, kNoStop, 40, 22, 0, 22, 40, true, 0x406cf147ae147ae1, 0xa6535576905c366f, 0xc3d403da720324a1},
    {"fused_s0", kGstr, false, kStopVar, 32, 9, 12, 15, 32, true, 0x406cf147ae147ae1, 0xa6535576905c366f, 0xc3d403da720324a1},
    {"fused_s0", kGstr, false, kStopTt, 40, 22, 0, 22, 40, true, 0x406cf147ae147ae1, 0xa6535576905c366f, 0xc3d403da720324a1},
    {"fused_s0", kGstr, true, kNoStop, 7, 2, 0, 8, 6, true, 0x406a88f5c28f5c29, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"fused_s0", kGstr, true, kStopVar, 7, 1, 2, 7, 6, true, 0x406a88f5c28f5c29, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
    {"fused_s0", kGstr, true, kStopTt, 7, 2, 0, 8, 6, true, 0x406a88f5c28f5c29, 0xa26cd75e2b685fc5, 0xa3879809c47e2fcf},
};
// clang-format on

uint64_t CostBits(double cost) {
  uint64_t bits = 0;
  std::memcpy(&bits, &cost, sizeof(bits));
  return bits;
}

const char* StopConstant(Stop stop) {
  switch (stop) {
    case Stop::kNone: return "kNoStop";
    case Stop::kVar: return "kStopVar";
    case Stop::kTt: return "kStopTt";
  }
  return "?";
}

const char* StopName(Stop stop) {
  switch (stop) {
    case Stop::kNone: return "";
    case Stop::kVar: return " stop_var";
    case Stop::kTt: return " stop_tt";
  }
  return "?";
}

const char* StrategyConstant(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kExNaive: return "kExNaive";
    case StrategyKind::kExStr: return "kExStr";
    case StrategyKind::kDfs: return "kDfs";
    case StrategyKind::kGstr: return "kGstr";
    default: return "?";
  }
}

/// The table row a run produced, as it would be written in kExpected.
std::string Row(const std::string& workload, StrategyKind kind, bool avf,
                Stop stop, const SearchResult& r) {
  const SearchStats& s = r.stats;
  char buf[400];
  std::snprintf(
      buf, sizeof(buf),
      "{\"%s\", %s, %s, %s, %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
      ", %" PRIu64 ", %s, 0x%016" PRIx64 ", 0x%016" PRIx64 ", 0x%016" PRIx64
      "},",
      workload.c_str(), StrategyConstant(kind), avf ? "true" : "false",
      StopConstant(stop), s.created, s.duplicates, s.discarded, s.explored,
      s.transitions_applied, s.completed ? "true" : "false",
      CostBits(s.best_cost), r.best.fingerprint().hi,
      r.best.fingerprint().lo);
  return buf;
}

const Expected* Find(const std::string& workload, StrategyKind kind,
                     bool avf, Stop stop) {
  for (const Expected& e : kExpected) {
    if (workload == e.workload && e.strategy == kind && e.avf == avf &&
        e.stop == stop) {
      return &e;
    }
  }
  return nullptr;
}

constexpr StrategyKind kStrategies[] = {kExNaive, kExStr, kDfs, kGstr};
constexpr Stop kStops[] = {kNoStop, kStopVar, kStopTt};

class AccountingFixture : public ::testing::Test {
 protected:
  /// "seed<N>": two random 2-atom queries over a seeded random store.
  /// "fused_s0": two queries with isomorphic bodies and different heads,
  /// so AVF fuses the initial state in Init.
  void SetUpWorkload(const std::string& name) {
    workload_.clear();
    if (name == "fused_s0") {
      store_ = RandomStore(&dict_, 80, 10, 4, /*seed=*/601);
      workload_.push_back(MustParse(
          "q0(X, Y) :- t(X, p0, Y), t(Y, p1, Z)", &dict_));
      workload_.push_back(MustParse(
          "q1(Z) :- t(X, p0, Y), t(Y, p1, Z)", &dict_));
    } else {
      const uint64_t seed = std::stoull(name.substr(4));
      store_ = RandomStore(&dict_, 80, 10, 4, seed);
      Rng rng(seed * 17 + 7);
      for (int i = 0; i < 2; ++i) {
        workload_.push_back(RandomQuery(store_, 2, 2, rng.raw()));
        workload_.back().set_name("q" + std::to_string(i));
      }
    }
    stats_ = std::make_unique<rdf::Statistics>(&store_);
  }

  SearchResult Run(StrategyKind kind, bool avf, size_t num_threads,
                   Stop stop = kNoStop) {
    // A fresh model per run: no interner contents carry over.
    CostModel model(stats_.get(), CostWeights{});
    State s0 = *MakeInitialState(workload_);
    HeuristicOptions heur;
    heur.avf = avf;
    heur.stop_var = stop == Stop::kVar;
    heur.stop_tt = stop == Stop::kTt;
    SearchLimits limits;
    limits.time_budget_sec = 0;  // no deadline: every run exhausts its space
    limits.num_threads = num_threads;
    auto r = RunSearch(kind, s0, model, heur, limits);
    if (!r.ok()) {
      ADD_FAILURE() << StrategyName(kind) << ": " << r.status().ToString();
      return SearchResult{};
    }
    return *r;
  }

  rdf::Dictionary dict_;
  rdf::TripleStore store_;
  std::vector<cq::ConjunctiveQuery> workload_;
  std::unique_ptr<rdf::Statistics> stats_;
};

class SearchAccountingTest
    : public AccountingFixture,
      public ::testing::WithParamInterface<const char*> {};

TEST_P(SearchAccountingTest, CountersAndBestMatchCommittedValues) {
  const std::string workload = GetParam();
  SetUpWorkload(workload);
  for (StrategyKind kind : kStrategies) {
    for (bool avf : {false, true}) {
      for (Stop stop : kStops) {
        SearchResult r = Run(kind, avf, 1, stop);
        const std::string row = Row(workload, kind, avf, stop, r);
        const Expected* e = Find(workload, kind, avf, stop);
        ASSERT_NE(e, nullptr) << "no committed row; this run: " << row;
        SCOPED_TRACE(row);
        EXPECT_EQ(r.stats.created, e->created);
        EXPECT_EQ(r.stats.duplicates, e->duplicates);
        EXPECT_EQ(r.stats.discarded, e->discarded);
        EXPECT_EQ(r.stats.explored, e->explored);
        EXPECT_EQ(r.stats.transitions_applied, e->transitions_applied);
        EXPECT_EQ(r.stats.completed, e->completed);
        EXPECT_EQ(CostBits(r.stats.best_cost), e->cost_bits);
        EXPECT_EQ(r.best.fingerprint().hi, e->fp_hi);
        EXPECT_EQ(r.best.fingerprint().lo, e->fp_lo);
      }
    }
  }
}

class ParallelSearchAccountingTest
    : public AccountingFixture,
      public ::testing::WithParamInterface<const char*> {};

TEST_P(ParallelSearchAccountingTest, BestMatchesSerialAtTwoAndFourThreads) {
  const std::string workload = GetParam();
  SetUpWorkload(workload);
  for (StrategyKind kind : kStrategies) {
    for (bool avf : {false, true}) {
      for (Stop stop : kStops) {
        const Expected* e = Find(workload, kind, avf, stop);
        ASSERT_NE(e, nullptr);
        for (size_t threads : {size_t{2}, size_t{4}}) {
          SearchResult r = Run(kind, avf, threads, stop);
          SCOPED_TRACE(std::string(StrategyName(kind)) +
                       (avf ? " avf" : "") + StopName(stop) + " threads=" +
                       std::to_string(threads));
          EXPECT_TRUE(r.stats.completed);
          EXPECT_EQ(CostBits(r.stats.best_cost), e->cost_bits);
          EXPECT_EQ(r.best.fingerprint().hi, e->fp_hi);
          EXPECT_EQ(r.best.fingerprint().lo, e->fp_lo);
        }
      }
    }
  }
}

using SuccessorSkipTest = AccountingFixture;

TEST_F(SuccessorSkipTest, GstrSkipsKnownDuplicatesBeforeBuildingThem) {
  SetUpWorkload("seed501");
  telemetry::Counter* skipped =
      telemetry::MetricsRegistry::Default()->GetCounter(
          "vsel_successors_skipped_total");
  const uint64_t before = skipped->Value();
  SearchResult r = Run(kGstr, /*avf=*/true, 1);
  const uint64_t n = skipped->Value() - before;
  EXPECT_GT(n, 0u);
  EXPECT_LE(n, r.stats.duplicates);
}

TEST_F(SuccessorSkipTest, GstrDiscardsStopViolationsBeforeBuildingThem) {
  SetUpWorkload("seed501");
  telemetry::Counter* discarded =
      telemetry::MetricsRegistry::Default()->GetCounter(
          "vsel_successors_discarded_unbuilt_total");
  for (size_t threads : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    uint64_t before = discarded->Value();
    SearchResult r = Run(kGstr, /*avf=*/true, threads, kStopVar);
    const uint64_t n = discarded->Value() - before;
    EXPECT_GT(n, 0u);
    EXPECT_LE(n, r.stats.discarded);
    before = discarded->Value();
    Run(kGstr, /*avf=*/true, threads, kNoStop);
    EXPECT_EQ(discarded->Value(), before);
  }
}

using TransitionOutcomeCounterTest = AccountingFixture;

TEST_F(TransitionOutcomeCounterTest, GstrCountsTheSameHitsInIdenticalRuns) {
  SetUpWorkload("seed501");
  telemetry::MetricsRegistry* registry = telemetry::MetricsRegistry::Default();
  telemetry::Counter* hits =
      registry->GetCounter("vsel_transition_outcome_hits_total");
  telemetry::Counter* misses =
      registry->GetCounter("vsel_transition_outcome_misses_total");
  uint64_t run_hits[2];
  uint64_t run_misses[2];
  for (int run = 0; run < 2; ++run) {
    const uint64_t hits_before = hits->Value();
    const uint64_t misses_before = misses->Value();
    Run(kGstr, /*avf=*/true, 1);
    run_hits[run] = hits->Value() - hits_before;
    run_misses[run] = misses->Value() - misses_before;
  }
  EXPECT_GT(run_hits[0], 0u);
  EXPECT_GT(run_misses[0], 0u);
  EXPECT_EQ(run_hits[1], run_hits[0]);
  EXPECT_EQ(run_misses[1], run_misses[0]);
}

std::string WorkloadName(const ::testing::TestParamInfo<const char*>& info) {
  return info.param;
}

INSTANTIATE_TEST_SUITE_P(Workloads, SearchAccountingTest,
                         ::testing::Values("seed501", "seed502", "seed503",
                                           "fused_s0"),
                         WorkloadName);
INSTANTIATE_TEST_SUITE_P(Workloads, ParallelSearchAccountingTest,
                         ::testing::Values("seed501", "seed502", "seed503",
                                           "fused_s0"),
                         WorkloadName);

}  // namespace
}  // namespace rdfviews::vsel

#include <gtest/gtest.h>

#include <string>

#include "common/hash.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace rdfviews {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::TimedOut("x").code(), StatusCode::kTimedOut);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unsupported("x").code(), StatusCode::kUnsupported);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("abc"));
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "abc");
}

TEST(StringUtilTest, JoinAndSplitRoundTrip) {
  std::vector<std::string> parts = {"a", "b", "c"};
  EXPECT_EQ(Join(parts, ","), "a,b,c");
  EXPECT_EQ(Split("a,b,c", ','), parts);
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  std::vector<std::string> expected = {"", "x", ""};
  EXPECT_EQ(Split(",x,", ','), expected);
}

TEST(StringUtilTest, TrimStripsWhitespace) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("http://x", "http"));
  EXPECT_FALSE(StartsWith("x", "http"));
}

TEST(StringUtilTest, WithThousands) {
  EXPECT_EQ(WithThousands(0), "0");
  EXPECT_EQ(WithThousands(999), "999");
  EXPECT_EQ(WithThousands(1000), "1,000");
  EXPECT_EQ(WithThousands(1234567), "1,234,567");
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000), b.Uniform(0, 1000));
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Uniform(5, 10);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 10u);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> v = {1, 2, 3, 4, 5};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(ZipfTest, SkewsTowardLowRanks) {
  Rng rng(11);
  ZipfTable zipf(100, 1.0);
  size_t low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(&rng) < 10) ++low;
  }
  // With exponent 1.0 the first 10 ranks hold ~56% of the mass.
  EXPECT_GT(low, static_cast<size_t>(n) * 4 / 10);
}

TEST(ZipfTest, ZeroExponentIsUniformish) {
  Rng rng(13);
  ZipfTable zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[zipf.Sample(&rng)];
  for (int c : counts) EXPECT_GT(c, 500);
}

TEST(TimerTest, DeadlineZeroBudgetNeverExpires) {
  Deadline d(0);
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingSeconds(), 1e9);
}

TEST(TimerTest, TinyBudgetExpires) {
  Deadline d(1e-9);
  // Burn a little time.
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  EXPECT_TRUE(d.Expired());
}

TEST(HashTest, VectorHashDiffersOnContent) {
  VectorHash h;
  std::vector<uint32_t> a = {1, 2, 3};
  std::vector<uint32_t> b = {1, 2, 4};
  std::vector<uint32_t> c = {1, 2, 3};
  EXPECT_NE(h(a), h(b));
  EXPECT_EQ(h(a), h(c));
}

Hash128 Checksum(const std::string& s) {
  return ChecksumBytes128(s.data(), s.size());
}

TEST(ChecksumTest, KnownAnswersPinTheWireBytes) {
  // Blob and frame envelopes carry these digests: a change here is a
  // format change (serialize::kFormatVersion, vseld::kProtocolVersion).
  struct Case {
    std::string input;
    uint64_t lo, hi;
  };
  std::string seq(100, '\0');
  for (size_t i = 0; i < seq.size(); ++i) {
    seq[i] = static_cast<char>(i * 7 + 1);
  }
  const Case cases[] = {
      {"", 0x73e071319ae872efULL, 0x4d080faad1ce3139ULL},
      {"a", 0xd66d2dd41ff47b91ULL, 0xf2632576cc38bbd0ULL},
      {"abc", 0x9145861798e9c964ULL, 0x8ed8204fe951024eULL},
      {"0123456789abcdef0123456789abcdef", 0xe8478316dcf83721ULL,
       0x483d4dbd1df7ab71ULL},
      {"The quick brown fox jumps over the lazy dog", 0x0bc01741eacd73deULL,
       0xd0871a7afb7d289aULL},
      {seq, 0x8eef15c7f0e72e04ULL, 0x1ebcb4f90fbcea41ULL},
  };
  for (const Case& c : cases) {
    const Hash128 h = Checksum(c.input);
    EXPECT_EQ(h.lo, c.lo) << "input of " << c.input.size() << " bytes";
    EXPECT_EQ(h.hi, c.hi) << "input of " << c.input.size() << " bytes";
  }
}

TEST(ChecksumTest, EveryBitFlipAndTruncationOfOneKibChangesTheDigest) {
  std::string buf(1024, '\0');
  uint64_t x = 0x2545f4914f6cdd1dULL;
  for (char& c : buf) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    c = static_cast<char>(x >> 56);
  }
  const Hash128 base = Checksum(buf);
  // Deterministic, not probabilistic: a flip changes one word of one lane,
  // every lane step is a bijection of its word and of the lane state, and
  // each half of the finalizer is a bijection of each lane.
  for (size_t i = 0; i < buf.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = buf;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      EXPECT_NE(Checksum(flipped), base) << "byte " << i << " bit " << bit;
    }
  }
  for (size_t len = 0; len < buf.size(); ++len) {
    EXPECT_NE(ChecksumBytes128(buf.data(), len), base)
        << "prefix of " << len << " bytes";
  }
}

TEST(ChecksumTest, TrailingZeroByteChangesTheDigest) {
  // The tail word is zero-padded, so only the length tells these apart.
  for (const std::string& s :
       {std::string(), std::string("a"), std::string("abcdefg"),
        std::string(31, 'x'), std::string(32, 'x'), std::string(40, '\0')}) {
    std::string padded = s;
    padded.push_back('\0');
    EXPECT_NE(Checksum(s), Checksum(padded)) << s.size() << " bytes";
  }
}

}  // namespace
}  // namespace rdfviews

//===-- tests/workloads_test.cpp - Benchmark substrate tests --------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the benchmark substrates (compressor stages, FFT, corpus/search,
/// simulated services) and runs each of the six workloads in both
/// policies, asserting the instrumented run computes the same result and
/// reports no violations.
///
//===----------------------------------------------------------------------===//

#include "workloads/AgetWorkload.h"
#include "workloads/Compressor.h"
#include "workloads/DilloWorkload.h"
#include "workloads/Fft.h"
#include "workloads/FftwWorkload.h"
#include "workloads/Pbzip2Workload.h"
#include "workloads/PfscanWorkload.h"
#include "workloads/SimServices.h"
#include "workloads/StunnelWorkload.h"
#include "workloads/TextCorpus.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

using namespace sharc;
using namespace sharc::workloads;

namespace {

class RuntimeGuard {
public:
  explicit RuntimeGuard(rt::RuntimeConfig Config = rt::RuntimeConfig()) {
    rt::Runtime::init(Config);
  }
  ~RuntimeGuard() { rt::Runtime::shutdown(); }
};

ByteVec bytesOf(const char *Str) {
  ByteVec Out;
  while (*Str)
    Out.push_back(static_cast<uint8_t>(*Str++));
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Compressor stages
//===----------------------------------------------------------------------===//

TEST(BwtTest, KnownTransformRoundTrips) {
  ByteVec Input = bytesOf("banana");
  uint32_t Primary = 0;
  ByteVec Bwt = bwtForward(Input, Primary);
  EXPECT_EQ(bwtInverse(Bwt, Primary), Input);
}

TEST(BwtTest, EmptyAndSingleByte) {
  uint32_t Primary = 0;
  EXPECT_TRUE(bwtForward({}, Primary).empty());
  ByteVec One = {42};
  ByteVec Bwt = bwtForward(One, Primary);
  EXPECT_EQ(bwtInverse(Bwt, Primary), One);
}

TEST(BwtTest, RepetitiveInputRoundTrips) {
  ByteVec Input(1000, 'a');
  for (size_t I = 0; I < Input.size(); I += 37)
    Input[I] = 'b';
  uint32_t Primary = 0;
  ByteVec Bwt = bwtForward(Input, Primary);
  EXPECT_EQ(bwtInverse(Bwt, Primary), Input);
}

TEST(MtfTest, RoundTripsAndFrontLoads) {
  ByteVec Input = bytesOf("aaabbbcccaaa");
  ByteVec Mtf = mtfForward(Input);
  EXPECT_EQ(mtfInverse(Mtf), Input);
  // Repeated symbols encode as zero after the first occurrence.
  EXPECT_EQ(Mtf[1], 0);
  EXPECT_EQ(Mtf[2], 0);
}

TEST(RleTest, RoundTripsRunsAndLiterals) {
  for (const char *Case :
       {"", "a", "ab", "aab", "aaaa", "aaaaaaaaaaaaaaaaaaaaaaaaa",
        "abba", "xxyyzz"}) {
    ByteVec Input = bytesOf(Case);
    EXPECT_EQ(rleDecompress(rleCompress(Input)), Input) << Case;
  }
}

TEST(RleTest, LongRunSplits) {
  ByteVec Input(1000, 0);
  EXPECT_EQ(rleDecompress(rleCompress(Input)), Input);
  EXPECT_LT(rleCompress(Input).size(), 20u);
}

TEST(HuffmanTest, RoundTrips) {
  for (const char *Case :
       {"", "a", "hello world", "aaaaaaaaaabbbbbccc",
        "the quick brown fox jumps over the lazy dog"}) {
    ByteVec Input = bytesOf(Case);
    EXPECT_EQ(huffmanDecompress(huffmanCompress(Input)), Input) << Case;
  }
}

TEST(HuffmanTest, SkewedDistributionCompresses) {
  ByteVec Input(4096, 'a');
  for (size_t I = 0; I < Input.size(); I += 101)
    Input[I] = static_cast<uint8_t>('b' + (I % 20));
  ByteVec Out = huffmanCompress(Input);
  EXPECT_LT(Out.size(), Input.size() / 2);
  EXPECT_EQ(huffmanDecompress(Out), Input);
}

class BlockRoundTripTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BlockRoundTripTest, CompressDecompressIdentity) {
  std::vector<CorpusFile> Corpus =
      makeCorpus(1, GetParam(), "needle", GetParam() + 17);
  const ByteVec &Input = Corpus[0].Contents;
  ByteVec Compressed = compressBlock(Input);
  EXPECT_EQ(decompressBlock(Compressed), Input);
  // Pseudo-text must actually compress.
  if (GetParam() >= 4096) {
    EXPECT_LT(Compressed.size(), Input.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BlockRoundTripTest,
                         ::testing::Values(1u, 64u, 1024u, 4096u, 16384u));

//===----------------------------------------------------------------------===//
// FFT
//===----------------------------------------------------------------------===//

TEST(FftTest, ForwardInverseRoundTrips) {
  std::vector<Complex> Data(1024);
  uint64_t Rng = 5;
  for (Complex &C : Data) {
    Rng = Rng * 6364136223846793005ull + 1;
    C = Complex(static_cast<double>(Rng >> 40),
                static_cast<double>(Rng & 0xFFFF));
  }
  std::vector<Complex> Original = Data;
  fftInPlace(Data, false);
  fftInPlace(Data, true);
  EXPECT_LT(maxAbsDiff(Data, Original), 1e-6 * (1 << 24));
}

TEST(FftTest, DeltaTransformsToConstant) {
  std::vector<Complex> Data(16, Complex(0));
  Data[0] = Complex(1);
  fftInPlace(Data, false);
  for (const Complex &C : Data)
    EXPECT_NEAR(std::abs(C), 1.0, 1e-12);
}

TEST(FftTest, ParsevalHolds) {
  std::vector<Complex> Data(256);
  for (size_t I = 0; I != Data.size(); ++I)
    Data[I] = Complex(std::sin(0.1 * static_cast<double>(I)),
                      std::cos(0.3 * static_cast<double>(I)));
  double TimeEnergy = 0;
  for (const Complex &C : Data)
    TimeEnergy += std::norm(C);
  fftInPlace(Data, false);
  double FreqEnergy = 0;
  for (const Complex &C : Data)
    FreqEnergy += std::norm(C);
  EXPECT_NEAR(FreqEnergy / static_cast<double>(Data.size()), TimeEnergy,
              1e-6);
}

//===----------------------------------------------------------------------===//
// Corpus and services
//===----------------------------------------------------------------------===//

TEST(CorpusTest, DeterministicAndSearchable) {
  auto A = makeCorpus(4, 8192, "etaoin", 11);
  auto B = makeCorpus(4, 8192, "etaoin", 11);
  ASSERT_EQ(A.size(), 4u);
  for (size_t I = 0; I != A.size(); ++I)
    EXPECT_EQ(A[I].Contents, B[I].Contents);
  uint64_t Total = 0;
  for (const CorpusFile &F : A)
    Total += countOccurrences(F.Contents.data(), F.Contents.size(),
                              "etaoin");
  EXPECT_GT(Total, 0u);
}

TEST(SearchTest, CountsKnownOccurrences) {
  std::string Hay = "abcabcabc";
  EXPECT_EQ(countOccurrences(
                reinterpret_cast<const uint8_t *>(Hay.data()), Hay.size(),
                "abc"),
            3u);
  EXPECT_EQ(countOccurrences(
                reinterpret_cast<const uint8_t *>(Hay.data()), Hay.size(),
                "zzz"),
            0u);
}

TEST(SimNetTest, DeterministicBytes) {
  SimNet Net(0);
  uint8_t A[64], B[64];
  Net.fetch(7, 100, A, sizeof(A));
  Net.fetch(7, 100, B, sizeof(B));
  EXPECT_EQ(std::memcmp(A, B, sizeof(A)), 0);
  Net.fetch(8, 100, B, sizeof(B));
  EXPECT_NE(std::memcmp(A, B, sizeof(A)), 0);
}

TEST(CipherTest, EncryptDecryptRoundTrips) {
  std::vector<uint8_t> Data(512);
  for (size_t I = 0; I != Data.size(); ++I)
    Data[I] = static_cast<uint8_t>(I);
  std::vector<uint8_t> Original = Data;
  StreamCipher A(123), B(123);
  A.apply(Data.data(), Data.size());
  EXPECT_NE(Data, Original);
  B.apply(Data.data(), Data.size());
  EXPECT_EQ(Data, Original);
}

TEST(DnsTest, DeterministicResolution) {
  EXPECT_EQ(simDnsResolve("host1.example.com", 0),
            simDnsResolve("host1.example.com", 0));
  EXPECT_NE(simDnsResolve("host1.example.com", 0),
            simDnsResolve("host2.example.com", 0));
  EXPECT_EQ(simDnsResolve("x", 0) >> 24, 0x0Au);
}

//===----------------------------------------------------------------------===//
// Whole workloads, both policies
//===----------------------------------------------------------------------===//

namespace {

/// Runs one workload uninstrumented and instrumented, asserting equal
/// checksums and a clean SharC run.
template <typename ConfigT, typename FnT>
void runBothPolicies(const ConfigT &Config, FnT Run) {
  WorkloadResult Orig = Run.template operator()<UncheckedPolicy>(Config);
  rt::StatsSnapshot Stats;
  WorkloadResult Sharc;
  {
    RuntimeGuard Guard;
    Sharc = Run.template operator()<SharcPolicy>(Config);
    Stats = rt::Runtime::get().getStats();
    EXPECT_EQ(rt::Runtime::get().getReports().getNumReports(), 0u);
    EXPECT_EQ(Stats.totalConflicts(), 0u);
  }
  EXPECT_EQ(Orig.Checksum, Sharc.Checksum);
  EXPECT_EQ(Orig.WorkUnits, Sharc.WorkUnits);
}

} // namespace

TEST(WorkloadTest, PfscanBothPoliciesAgree) {
  PfscanConfig Config;
  Config.NumFiles = 8;
  Config.BytesPerFile = 4096;
  runBothPolicies(Config, []<typename P>(const PfscanConfig &C) {
    return runPfscan<P>(C);
  });
}

TEST(WorkloadTest, AgetBothPoliciesAgree) {
  AgetConfig Config;
  Config.TotalBytes = 1u << 16;
  Config.LatencyNanos = 0;
  runBothPolicies(Config, []<typename P>(const AgetConfig &C) {
    return runAget<P>(C);
  });
}

TEST(WorkloadTest, Pbzip2BothPoliciesAgreeAndRoundTrip) {
  Pbzip2Config Config;
  Config.NumBlocks = 6;
  Config.BlockBytes = 2048;
  Config.Verify = true;
  runBothPolicies(Config, []<typename P>(const Pbzip2Config &C) {
    return runPbzip2<P>(C);
  });
}

TEST(WorkloadTest, DilloBothPoliciesAgree) {
  DilloConfig Config;
  Config.NumRequests = 32;
  Config.LatencyNanos = 0;
  runBothPolicies(Config, []<typename P>(const DilloConfig &C) {
    return runDillo<P>(C);
  });
}

TEST(WorkloadTest, FftwBothPoliciesAgree) {
  FftwConfig Config;
  Config.NumTransforms = 8;
  Config.TransformSize = 256;
  runBothPolicies(Config, []<typename P>(const FftwConfig &C) {
    return runFftw<P>(C);
  });
}

TEST(WorkloadDeathTest, FftwRejectsTransformSizeNotAPowerOfTwo) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (size_t Size : {size_t(0), size_t(3)}) {
    FftwConfig Config;
    Config.NumTransforms = 1;
    Config.TransformSize = Size;
    EXPECT_EXIT(runFftw<UncheckedPolicy>(Config), testing::ExitedWithCode(3),
                "TransformSize must be a non-zero power of two")
        << "size " << Size;
  }
}

TEST(WorkloadTest, StunnelBothPoliciesAgree) {
  StunnelConfig Config;
  Config.MessagesPerClient = 20;
  Config.MessageBytes = 128;
  runBothPolicies(Config, []<typename P>(const StunnelConfig &C) {
    return runStunnel<P>(C);
  });
}

TEST(WorkloadTest, DilloBogusPointersAreCounted) {
  // The instrumented dillo run must populate the reference count table
  // with the "bogus" integer addresses (paper Section 5, dillo row).
  DilloConfig Config;
  Config.NumRequests = 24;
  Config.LatencyNanos = 0;
  RuntimeGuard Guard;
  runDillo<SharcPolicy>(Config);
  EXPECT_GT(rt::Runtime::get().getRc().getTable().getNumEntries(), 10u);
}

TEST(WorkloadTest, PfscanDynamicAccessFractionIsHigh) {
  PfscanConfig Config;
  Config.NumFiles = 8;
  Config.BytesPerFile = 4096;
  RuntimeGuard Guard;
  WorkloadResult R = runPfscan<SharcPolicy>(Config);
  rt::StatsSnapshot Stats = rt::Runtime::get().getStats();
  // Every scanned byte is covered by a dynamic range check: the dynamic
  // fraction of tracked accesses dominates this workload (paper: 80%).
  EXPECT_GE(Stats.dynamicAccessBytes(), R.WorkUnits);
  EXPECT_GT(Stats.dynamicAccessBytes(),
            R.TotalMemoryAccessesEstimate / 2);
}

TEST(WorkloadTest, StunnelOwnershipTransfersAreCast) {
  StunnelConfig Config;
  Config.MessagesPerClient = 10;
  RuntimeGuard Guard;
  runStunnel<SharcPolicy>(Config);
  rt::StatsSnapshot Stats = rt::Runtime::get().getStats();
  // Every message crosses two mailboxes: >= 4 casts per message.
  EXPECT_GE(Stats.SharingCasts,
            uint64_t(Config.NumClients) * Config.MessagesPerClient * 4);
  EXPECT_EQ(Stats.CastErrors, 0u);
}

TEST(WorkloadTest, Pbzip2DecompressionModeAgreesAndRoundTrips) {
  Pbzip2Config Config;
  Config.NumBlocks = 5;
  Config.BlockBytes = 2048;
  Config.Decompress = true;
  Config.Verify = true;
  runBothPolicies(Config, []<typename P>(const Pbzip2Config &C) {
    return runPbzip2<P>(C);
  });
}

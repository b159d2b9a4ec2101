// Pins the bytes a decomposition writes. A small dense input and a small
// CSF input are generated and decomposed on a mem:// store, and every file
// of the factor store (sub-factors and MANIFEST) is hashed with CRC-32 and
// compared against constants recorded from the scalar kernels.
//
// The kernel layer picks its instruction set at run time (linalg/
// kernels.h), and every build — the default one, TPCP_FORCE_SCALAR, or one
// with -m flags — must write these same bytes. The constants also depend
// on the generator's libm calls (log, cos, sqrt), so they hold for the
// x86-64 glibc toolchain they were recorded on. When a change is meant to
// move the numbers, the failure message prints the new table.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "api/session.h"
#include "data/synthetic.h"
#include "storage/crc32.h"

namespace tpcp {
namespace {

using Crcs = std::map<std::string, uint32_t>;

// Rank 13 runs every column path of the blocked Gemm kernels (two vectors,
// one vector and a scalar tail at AVX2's width 4) and of the MTTKRP row
// kernels; the odd shape gives uneven blocks.
constexpr int64_t kRank = 13;

// A serialized record (storage/serializer.h) ends in the CRC-32 of the
// bytes before it, and CRC-32 over such a whole record is the same residue
// for every record, so a record hashes to its CRC-checked trailer; any
// other file (the MANIFEST) hashes whole.
uint32_t ContentCrc(const std::string& bytes) {
  if (bytes.size() >= sizeof(uint32_t)) {
    const size_t body = bytes.size() - sizeof(uint32_t);
    uint32_t trailer;
    std::memcpy(&trailer, bytes.data() + body, sizeof(trailer));
    if (Crc32(bytes.data(), body) == trailer) return trailer;
  }
  return Crc32(bytes.data(), bytes.size());
}

Crcs DecomposeAndHash(SlabFormat format, double density) {
  Crcs crcs;
  auto session = Session::Open({"mem://"});
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  if (!session.ok()) return crcs;

  LowRankSpec spec;
  spec.shape = Shape({20, 18, 22});
  spec.rank = 5;
  spec.noise_level = 0.05;
  spec.density = density;
  spec.seed = 7;
  auto grid = GridPartition::CreateUniform(spec.shape, 2);
  EXPECT_TRUE(grid.ok()) << grid.status().ToString();
  if (!grid.ok()) return crcs;
  auto store = (*session)->CreateTensorStore(*grid, format);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  if (!store.ok()) return crcs;
  const Status generated = GenerateLowRankIntoStore(spec, *store);
  EXPECT_TRUE(generated.ok()) << generated.ToString();

  TwoPhaseCpOptions options;
  options.rank = kRank;
  options.seed = 3;
  options.max_virtual_iterations = 6;
  options.fit_tolerance = -1.0;
  options.buffer_fraction = 0.5;
  auto result = (*session)->Decompose("2pcp", options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return crcs;

  Env* env = (*session)->env();
  for (const std::string& name : env->ListFiles("factors/")) {
    std::string bytes;
    const Status read = env->ReadFile(name, &bytes);
    EXPECT_TRUE(read.ok()) << name << ": " << read.ToString();
    crcs[name] = ContentCrc(bytes);
  }
  return crcs;
}

// The table as source lines, for pasting when the numbers move on purpose.
std::string AsSource(const Crcs& crcs) {
  std::string out;
  char line[96];
  for (const auto& [name, crc] : crcs) {
    std::snprintf(line, sizeof(line), "      {\"%s\", 0x%08xu},\n",
                  name.c_str(), crc);
    out += line;
  }
  return out;
}

TEST(FactorBytesTest, DenseInputWritesPinnedFactors) {
  const Crcs want = {
      {"factors/A_0_0", 0x60cb8c3au},
      {"factors/A_0_1", 0x8d287041u},
      {"factors/A_1_0", 0x19ca8c0eu},
      {"factors/A_1_1", 0x23e7102fu},
      {"factors/A_2_0", 0xd2580605u},
      {"factors/A_2_1", 0xdf266004u},
      {"factors/MANIFEST", 0x97846208u},
      {"factors/U_0_0_0_0", 0x61ec7fbeu},
      {"factors/U_0_0_0_1", 0xae5c71cau},
      {"factors/U_0_0_1_0", 0x513743cau},
      {"factors/U_0_0_1_1", 0x7b4de49eu},
      {"factors/U_0_1_0_0", 0xc5cbea37u},
      {"factors/U_0_1_0_1", 0xf05192e6u},
      {"factors/U_0_1_1_0", 0xecdd52fdu},
      {"factors/U_0_1_1_1", 0xad0221a1u},
      {"factors/U_1_0_0_0", 0x4d4be819u},
      {"factors/U_1_0_0_1", 0x4b7661e3u},
      {"factors/U_1_0_1_0", 0xb7c0b1beu},
      {"factors/U_1_0_1_1", 0xb7756c4du},
      {"factors/U_1_1_0_0", 0x9a04e9a2u},
      {"factors/U_1_1_0_1", 0x478e9bf3u},
      {"factors/U_1_1_1_0", 0x0312bf1fu},
      {"factors/U_1_1_1_1", 0xc944f7bcu},
      {"factors/U_2_0_0_0", 0x5b90a1d2u},
      {"factors/U_2_0_0_1", 0x5208196eu},
      {"factors/U_2_0_1_0", 0x80aed125u},
      {"factors/U_2_0_1_1", 0x487f8738u},
      {"factors/U_2_1_0_0", 0x3d519565u},
      {"factors/U_2_1_0_1", 0x5dc30842u},
      {"factors/U_2_1_1_0", 0x7ce0eeffu},
      {"factors/U_2_1_1_1", 0x3eb23599u},
  };
  const Crcs got = DecomposeAndHash(SlabFormat::kDense, 1.0);
  EXPECT_EQ(got, want) << "factor CRCs are now:\n" << AsSource(got);
}

TEST(FactorBytesTest, CsfInputWritesPinnedFactors) {
  const Crcs want = {
      {"factors/A_0_0", 0x76db3c56u},
      {"factors/A_0_1", 0xee6e51e7u},
      {"factors/A_1_0", 0x59150b85u},
      {"factors/A_1_1", 0xd159e335u},
      {"factors/A_2_0", 0x800e2337u},
      {"factors/A_2_1", 0x57c171a2u},
      {"factors/MANIFEST", 0x97846208u},
      {"factors/U_0_0_0_0", 0x37582d64u},
      {"factors/U_0_0_0_1", 0x910b54e5u},
      {"factors/U_0_0_1_0", 0x468ed256u},
      {"factors/U_0_0_1_1", 0x64e4060fu},
      {"factors/U_0_1_0_0", 0xe45a879du},
      {"factors/U_0_1_0_1", 0xc4f37717u},
      {"factors/U_0_1_1_0", 0x2bdfa84eu},
      {"factors/U_0_1_1_1", 0xd5e6ff47u},
      {"factors/U_1_0_0_0", 0x56a2a3f8u},
      {"factors/U_1_0_0_1", 0x79cc8301u},
      {"factors/U_1_0_1_0", 0x94383938u},
      {"factors/U_1_0_1_1", 0x71b08a7cu},
      {"factors/U_1_1_0_0", 0x170178bbu},
      {"factors/U_1_1_0_1", 0xe8dfa0c6u},
      {"factors/U_1_1_1_0", 0xb7eb37bbu},
      {"factors/U_1_1_1_1", 0xdec3af01u},
      {"factors/U_2_0_0_0", 0x9d20c9dfu},
      {"factors/U_2_0_0_1", 0x7e108b34u},
      {"factors/U_2_0_1_0", 0xdd02ba39u},
      {"factors/U_2_0_1_1", 0xab0417beu},
      {"factors/U_2_1_0_0", 0xf01d6ba4u},
      {"factors/U_2_1_0_1", 0xc150f536u},
      {"factors/U_2_1_1_0", 0x76a0b159u},
      {"factors/U_2_1_1_1", 0xa9262b34u},
  };
  const Crcs got = DecomposeAndHash(SlabFormat::kCsf, 0.3);
  EXPECT_EQ(got, want) << "factor CRCs are now:\n" << AsSource(got);
}

}  // namespace
}  // namespace tpcp

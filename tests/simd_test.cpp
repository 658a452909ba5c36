#include <gtest/gtest.h>

#include <cstdint>

#include "simd/simd.hpp"

namespace biq {
namespace {

TEST(Simd, Popcount64) {
  EXPECT_EQ(simd::popcount64(0), 0);
  EXPECT_EQ(simd::popcount64(1), 1);
  EXPECT_EQ(simd::popcount64(0xFFFFFFFFFFFFFFFFULL), 64);
  EXPECT_EQ(simd::popcount64(0xAAAAAAAAAAAAAAAAULL), 32);
  EXPECT_EQ(simd::popcount64(0x8000000000000001ULL), 2);
}

}  // namespace
}  // namespace biq

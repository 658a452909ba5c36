// Cache-line / SIMD aligned heap buffer. All matrix storage in the library
// goes through this so that vector loads never straddle alignment
// boundaries and adjacent buffers never share a cache line.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <limits>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>

namespace biq {

inline constexpr std::size_t kDefaultAlignment = 64;

/// a * b; throws std::length_error naming `who` when the product does
/// not fit in size_t (a wrapped size would allocate a short block that
/// later writes run past).
[[nodiscard]] inline std::size_t checked_size_mul(std::size_t a, std::size_t b,
                                                  const char* who) {
  if (b != 0 && a > std::numeric_limits<std::size_t>::max() / b) {
    throw std::length_error(std::string(who) + ": " + std::to_string(a) +
                            " x " + std::to_string(b) +
                            " overflows size_t");
  }
  return a * b;
}

/// v rounded up to a multiple of `align`; std::length_error naming `who`
/// when that does not fit in size_t.
[[nodiscard]] inline std::size_t checked_round_up(std::size_t v,
                                                  std::size_t align,
                                                  const char* who) {
  if (v > std::numeric_limits<std::size_t>::max() - (align - 1)) {
    throw std::length_error(std::string(who) + ": " + std::to_string(v) +
                            " bytes cannot be rounded up to " +
                            std::to_string(align));
  }
  return (v + align - 1) / align * align;
}

/// Owning, aligned, fixed-size array of trivially-destructible T.
/// Unlike std::vector it guarantees the alignment of element 0 and never
/// default-constructs elements it is not asked to (zero_fill is explicit).
template <typename T>
class AlignedBuffer {
  static_assert(std::is_trivially_destructible_v<T>,
                "AlignedBuffer only supports trivially destructible types");

 public:
  AlignedBuffer() noexcept = default;

  explicit AlignedBuffer(std::size_t count, bool zero_fill = false)
      : size_(count) {
    if (count == 0) return;
    const std::size_t bytes =
        checked_round_up(checked_size_mul(count, sizeof(T), "AlignedBuffer"),
                         kDefaultAlignment, "AlignedBuffer");
    data_ = static_cast<T*>(std::aligned_alloc(kDefaultAlignment, bytes));
    if (data_ == nullptr) throw std::bad_alloc{};
    if (zero_fill) {
      for (std::size_t i = 0; i < count; ++i) data_[i] = T{};
    }
  }

  AlignedBuffer(const AlignedBuffer& other) : AlignedBuffer(other.size_) {
    for (std::size_t i = 0; i < size_; ++i) data_[i] = other.data_[i];
  }

  AlignedBuffer& operator=(const AlignedBuffer& other) {
    if (this != &other) {
      AlignedBuffer tmp(other);
      swap(tmp);
    }
    return *this;
  }

  AlignedBuffer(AlignedBuffer&& other) noexcept { swap(other); }

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    swap(other);
    return *this;
  }

  ~AlignedBuffer() { std::free(data_); }

  void swap(AlignedBuffer& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
  }

  [[nodiscard]] T* data() noexcept { return data_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size_bytes() const noexcept { return size_ * sizeof(T); }

  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }

  [[nodiscard]] T* begin() noexcept { return data_; }
  [[nodiscard]] T* end() noexcept { return data_ + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data_; }
  [[nodiscard]] const T* end() const noexcept { return data_ + size_; }

  void fill(const T& value) noexcept {
    for (std::size_t i = 0; i < size_; ++i) data_[i] = value;
  }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace biq

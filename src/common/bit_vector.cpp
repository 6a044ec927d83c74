#include "src/common/bit_vector.hpp"

#include <algorithm>

#include "src/common/assert.hpp"
#include "src/common/rng.hpp"

namespace memhd::common {

BitVector::BitVector(std::size_t nbits)
    : nbits_(nbits), words_(words_for_bits(nbits), 0ULL) {}

BitVector BitVector::from_bools(const std::vector<bool>& bits) {
  BitVector v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i)
    if (bits[i]) v.words_[i / kBitsPerWord] |= 1ULL << (i % kBitsPerWord);
  return v;
}

BitVector BitVector::from_threshold(const float* values, std::size_t n,
                                    float threshold) {
  BitVector v(n);
  // Each word ORs 64 comparison results, with no branch per bit (a data-
  // dependent branch mispredicts on half the bits of a balanced encoding).
  for (std::size_t w = 0; w < v.words_.size(); ++w) {
    const float* x = values + w * kBitsPerWord;
    const std::size_t count = std::min(kBitsPerWord, n - w * kBitsPerWord);
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < count; ++i)
      word |= static_cast<std::uint64_t>(x[i] > threshold) << i;
    v.words_[w] = word;
  }
  return v;
}

BitVector BitVector::random(std::size_t nbits, Rng& rng) {
  BitVector v(nbits);
  for (auto& w : v.words_) w = rng.next_u64();
  v.clear_tail();
  return v;
}

bool BitVector::get(std::size_t i) const {
  MEMHD_EXPECTS(i < nbits_);
  return (words_[i / kBitsPerWord] >> (i % kBitsPerWord)) & 1ULL;
}

void BitVector::set(std::size_t i, bool value) {
  MEMHD_EXPECTS(i < nbits_);
  const std::uint64_t mask = 1ULL << (i % kBitsPerWord);
  if (value)
    words_[i / kBitsPerWord] |= mask;
  else
    words_[i / kBitsPerWord] &= ~mask;
}

void BitVector::flip(std::size_t i) {
  MEMHD_EXPECTS(i < nbits_);
  words_[i / kBitsPerWord] ^= 1ULL << (i % kBitsPerWord);
}

void BitVector::fill(bool value) {
  const std::uint64_t w = value ? ~0ULL : 0ULL;
  for (auto& word : words_) word = w;
  clear_tail();
}

std::size_t BitVector::popcount() const {
  std::size_t acc = 0;
  for (const auto w : words_) acc += static_cast<std::size_t>(popcount64(w));
  return acc;
}

std::size_t BitVector::dot(const BitVector& other) const {
  MEMHD_EXPECTS(nbits_ == other.nbits_);
  return and_popcount(words_.data(), other.words_.data(), words_.size());
}

std::size_t BitVector::hamming(const BitVector& other) const {
  MEMHD_EXPECTS(nbits_ == other.nbits_);
  return xor_popcount(words_.data(), other.words_.data(), words_.size());
}

BitVector BitVector::operator&(const BitVector& other) const {
  MEMHD_EXPECTS(nbits_ == other.nbits_);
  BitVector out(nbits_);
  for (std::size_t i = 0; i < words_.size(); ++i)
    out.words_[i] = words_[i] & other.words_[i];
  return out;
}

BitVector BitVector::operator|(const BitVector& other) const {
  MEMHD_EXPECTS(nbits_ == other.nbits_);
  BitVector out(nbits_);
  for (std::size_t i = 0; i < words_.size(); ++i)
    out.words_[i] = words_[i] | other.words_[i];
  return out;
}

BitVector BitVector::operator^(const BitVector& other) const {
  MEMHD_EXPECTS(nbits_ == other.nbits_);
  BitVector out(nbits_);
  for (std::size_t i = 0; i < words_.size(); ++i)
    out.words_[i] = words_[i] ^ other.words_[i];
  return out;
}

BitVector BitVector::operator~() const {
  BitVector out(nbits_);
  for (std::size_t i = 0; i < words_.size(); ++i) out.words_[i] = ~words_[i];
  out.clear_tail();
  return out;
}

bool BitVector::operator==(const BitVector& other) const {
  return nbits_ == other.nbits_ && words_ == other.words_;
}

void BitVector::to_bipolar(std::vector<float>& out) const {
  out.reserve(out.size() + nbits_);
  for (std::size_t i = 0; i < nbits_; ++i) out.push_back(get(i) ? 1.0f : -1.0f);
}

void BitVector::to_floats(std::vector<float>& out) const {
  out.reserve(out.size() + nbits_);
  for (std::size_t i = 0; i < nbits_; ++i) out.push_back(get(i) ? 1.0f : 0.0f);
}

std::vector<bool> BitVector::to_bools() const {
  std::vector<bool> out(nbits_);
  for (std::size_t i = 0; i < nbits_; ++i) out[i] = get(i);
  return out;
}

std::string BitVector::to_string() const {
  std::string s;
  s.reserve(nbits_);
  for (std::size_t i = 0; i < nbits_; ++i) s.push_back(get(i) ? '1' : '0');
  return s;
}

void BitVector::clear_tail() {
  if (!words_.empty()) words_.back() &= tail_mask(nbits_);
}

}  // namespace memhd::common

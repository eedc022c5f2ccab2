#include "gate.h"

#include <array>
#include <cstdint>
#include <cstring>

namespace perfbench {
namespace {

constexpr std::array<std::uint32_t, 64> kSine = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613,
    0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193,
    0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d,
    0x02441453, 0xd8a1e681, 0xe7d3fbc8, 0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed,
    0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122,
    0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665, 0xf4292244,
    0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb,
    0xeb86d391};
constexpr std::array<int, 16> kShift = {7, 12, 17, 22, 5, 9, 14, 20, 4, 11, 16, 23, 6, 10, 15, 21};

std::uint32_t rotl(std::uint32_t x, int c) { return (x << c) | (x >> (32 - c)); }

void md5_block(std::array<std::uint32_t, 4>& h, const unsigned char* block) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = static_cast<std::uint32_t>(block[i * 4]) |
           static_cast<std::uint32_t>(block[i * 4 + 1]) << 8 |
           static_cast<std::uint32_t>(block[i * 4 + 2]) << 16 |
           static_cast<std::uint32_t>(block[i * 4 + 3]) << 24;
  }
  std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
  for (int i = 0; i < 64; ++i) {
    std::uint32_t f = 0;
    int g = 0;
    if (i < 16) {
      f = (b & c) | (~b & d);
      g = i;
    } else if (i < 32) {
      f = (d & b) | (~d & c);
      g = (5 * i + 1) % 16;
    } else if (i < 48) {
      f = b ^ c ^ d;
      g = (3 * i + 5) % 16;
    } else {
      f = c ^ (b | ~d);
      g = (7 * i) % 16;
    }
    const std::uint32_t next = d;
    d = c;
    c = b;
    b = b + rotl(a + f + kSine[i] + m[g], kShift[(i / 16) * 4 + i % 4]);
    a = next;
  }
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
}

}  // namespace

std::string md5_hex(std::string_view bytes) {
  std::array<std::uint32_t, 4> h = {0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476};
  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t offset = 0;
  for (; offset + 64 <= bytes.size(); offset += 64) md5_block(h, data + offset);

  // Padding: 0x80, zeros to 56 mod 64, then the bit length little-endian.
  unsigned char tail[128] = {};
  const std::size_t rest = bytes.size() - offset;
  std::memcpy(tail, data + offset, rest);
  tail[rest] = 0x80;
  const std::size_t tail_len = rest < 56 ? 64 : 128;
  const std::uint64_t bits = static_cast<std::uint64_t>(bytes.size()) * 8;
  for (int i = 0; i < 8; ++i) tail[tail_len - 8 + i] = static_cast<unsigned char>(bits >> (8 * i));
  for (std::size_t i = 0; i < tail_len; i += 64) md5_block(h, tail + i);

  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (const std::uint32_t word : h) {
    for (int i = 0; i < 4; ++i) {
      const auto byte = static_cast<unsigned char>(word >> (8 * i));
      out += kHex[byte >> 4];
      out += kHex[byte & 0xF];
    }
  }
  return out;
}

void Gate::expect(bool ok, std::string what) {
  if (!ok) failures_.push_back(std::move(what));
}

void Gate::expect_digest(std::string_view bytes, std::string_view golden_md5, std::string what) {
  const std::string digest = md5_hex(bytes);
  if (digest != golden_md5) {
    failures_.push_back(std::move(what) + ": md5 " + digest + " != golden " +
                        std::string(golden_md5));
  }
}

void Gate::expect_same(std::string_view a, std::string_view b, std::string what) {
  if (a == b) return;
  std::size_t at = 0;
  while (at < a.size() && at < b.size() && a[at] == b[at]) ++at;
  failures_.push_back(std::move(what) + ": first difference at byte " + std::to_string(at) +
                      " (sizes " + std::to_string(a.size()) + " and " + std::to_string(b.size()) +
                      ")");
}

void OutputPin::check(Gate& gate, std::uint64_t data_seed, const std::string& output) {
  const auto [entry, first] = first_.try_emplace(data_seed, output);
  const std::string label = what_ + " (data seed " + std::to_string(data_seed) + ")";
  if (!first) {
    gate.expect_same(entry->second, output, label + " vs its first iteration");
  } else if (data_seed == 0) {
    gate.expect_digest(output, golden_md5_, label);
  }
}

}  // namespace perfbench

#include "codec/bwt.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <queue>
#include <stdexcept>

#include "codec/bitstream.hpp"

namespace avf::codec {

namespace bwtdetail {

std::vector<std::uint32_t> suffix_array(BytesView data) {
  // Suffixes of data + implicit sentinel (smaller than every byte).  Prefix
  // doubling: after the round for k, sa is sorted by the first 2k symbols
  // and rank[i] is the dense class of suffix i under that order.  Each
  // round is one stable counting sort by first-half rank of the suffixes
  // already ordered by their second half, so a round is O(n).
  const std::size_t n = data.size() + 1;
  std::vector<std::uint32_t> sa(n), order(n), rank(n), next(n);
  std::vector<std::uint32_t> count(std::max<std::size_t>(n, 257));

  // Round 0: counting sort by first symbol; the sentinel is class 0.
  rank[n - 1] = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) rank[i] = data[i] + 1u;
  for (std::size_t i = 0; i < n; ++i) ++count[rank[i]];
  for (std::size_t c = 1; c < 257; ++c) count[c] += count[c - 1];
  for (std::size_t i = n; i-- > 0;) {
    sa[--count[rank[i]]] = static_cast<std::uint32_t>(i);
  }
  std::uint32_t classes = 1;
  next[sa[0]] = 0;
  for (std::size_t j = 1; j < n; ++j) {
    if (rank[sa[j]] != rank[sa[j - 1]]) ++classes;
    next[sa[j]] = classes - 1;
  }
  rank.swap(next);

  for (std::size_t k = 1; classes < n; k *= 2) {
    // Second-half order: suffixes whose second half is empty come first
    // (their class is already unique, so their mutual order is moot), then
    // the rest in the order of the suffix k positions further on.
    std::size_t p = 0;
    for (std::size_t i = n - k; i < n; ++i) {
      order[p++] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (sa[j] >= k) order[p++] = static_cast<std::uint32_t>(sa[j] - k);
    }
    // Stable counting sort by first-half class.
    std::fill(count.begin(), count.begin() + classes, 0u);
    for (std::size_t i = 0; i < n; ++i) ++count[rank[i]];
    for (std::size_t c = 1; c < classes; ++c) count[c] += count[c - 1];
    for (std::size_t j = n; j-- > 0;) sa[--count[rank[order[j]]]] = order[j];
    // Dense classes of the (first half, second half) pairs.
    auto second = [&](std::uint32_t i) -> std::uint32_t {
      return i + k < n ? rank[i + k] + 1 : 0;
    };
    classes = 1;
    next[sa[0]] = 0;
    for (std::size_t j = 1; j < n; ++j) {
      const std::uint32_t a = sa[j - 1], b = sa[j];
      if (rank[a] != rank[b] || second(a) != second(b)) ++classes;
      next[b] = classes - 1;
    }
    rank.swap(next);
  }
  return sa;
}

Bytes bwt_forward(BytesView block, std::uint32_t& primary_index) {
  std::vector<std::uint32_t> sa = suffix_array(block);
  Bytes out;
  out.reserve(block.size());
  primary_index = 0;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    std::uint32_t p = sa[i];
    if (p == 0) {
      primary_index = static_cast<std::uint32_t>(i);
    } else {
      out.push_back(block[p - 1]);
    }
  }
  return out;
}

Bytes bwt_inverse(BytesView last_column, std::uint32_t primary_index) {
  std::size_t n = last_column.size();
  if (primary_index > n) throw std::runtime_error("bwt: bad primary index");
  // L' = last_column with the sentinel (value -1) inserted at primary_index.
  std::size_t n1 = n + 1;
  auto value_at = [&](std::size_t i) -> int {
    if (i == primary_index) return -1;
    return last_column[i < primary_index ? i : i - 1];
  };
  // C[c] = number of symbols strictly smaller than c; occ via single pass.
  std::array<std::uint32_t, 257> count{};  // index 0 = sentinel, 1+b = byte b
  for (std::size_t i = 0; i < n1; ++i) ++count[value_at(i) + 1];
  std::array<std::uint32_t, 257> before{};
  std::uint32_t sum = 0;
  for (int c = 0; c < 257; ++c) {
    before[c] = sum;
    sum += count[c];
  }
  std::vector<std::uint32_t> lf(n1);
  std::array<std::uint32_t, 257> seen{};
  for (std::size_t i = 0; i < n1; ++i) {
    int c = value_at(i) + 1;
    lf[i] = before[c] + seen[c]++;
  }
  Bytes out(n);
  std::uint32_t row = 0;  // row 0 starts with the sentinel, ends with s[n-1]
  for (std::size_t k = n; k-- > 0;) {
    int v = value_at(row);
    if (v < 0) throw std::runtime_error("bwt: corrupt stream");
    out[k] = static_cast<std::uint8_t>(v);
    row = lf[row];
  }
  return out;
}

Bytes mtf_encode(BytesView input) {
  std::array<std::uint8_t, 256> order;
  for (int i = 0; i < 256; ++i) order[i] = static_cast<std::uint8_t>(i);
  Bytes out;
  out.reserve(input.size());
  for (std::uint8_t b : input) {
    int pos = 0;
    while (order[pos] != b) ++pos;
    out.push_back(static_cast<std::uint8_t>(pos));
    std::memmove(&order[1], &order[0], static_cast<std::size_t>(pos));
    order[0] = b;
  }
  return out;
}

Bytes mtf_decode(BytesView input) {
  std::array<std::uint8_t, 256> order;
  for (int i = 0; i < 256; ++i) order[i] = static_cast<std::uint8_t>(i);
  Bytes out;
  out.reserve(input.size());
  for (std::uint8_t pos : input) {
    std::uint8_t b = order[pos];
    out.push_back(b);
    std::memmove(&order[1], &order[0], static_cast<std::size_t>(pos));
    order[0] = b;
  }
  return out;
}

namespace {

/// Compute Huffman code lengths over an `alphabet`-sized histogram.
void huffman_lengths(std::span<const std::uint64_t> freq,
                     std::span<std::uint8_t> lengths) {
  int alphabet = static_cast<int>(freq.size());
  struct Node {
    std::uint64_t weight;
    int index;  // < alphabet: leaf symbol; >= alphabet: internal node id
  };
  auto cmp = [](const Node& a, const Node& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.index > b.index;  // deterministic tie-break
  };
  std::priority_queue<Node, std::vector<Node>, decltype(cmp)> heap(cmp);
  std::vector<std::pair<int, int>> children;  // internal node -> (left, right)
  for (int s = 0; s < alphabet; ++s) {
    if (freq[s] > 0) heap.push({freq[s], s});
  }
  std::fill(lengths.begin(), lengths.end(), 0);
  if (heap.empty()) return;
  if (heap.size() == 1) {
    lengths[static_cast<std::size_t>(heap.top().index)] = 1;
    return;
  }
  int next_internal = alphabet;
  while (heap.size() > 1) {
    Node a = heap.top();
    heap.pop();
    Node b = heap.top();
    heap.pop();
    children.emplace_back(a.index, b.index);
    heap.push({a.weight + b.weight, next_internal++});
  }
  // Depth-first depth assignment from the root (last internal node).
  std::vector<std::pair<int, int>> stack{{heap.top().index, 0}};
  while (!stack.empty()) {
    auto [idx, depth] = stack.back();
    stack.pop_back();
    if (idx < alphabet) {
      lengths[static_cast<std::size_t>(idx)] =
          static_cast<std::uint8_t>(depth);
    } else {
      auto [l, r] = children[static_cast<std::size_t>(idx - alphabet)];
      stack.push_back({l, depth + 1});
      stack.push_back({r, depth + 1});
    }
  }
}

/// Canonical code assignment: symbols sorted by (length, value).
void canonical_codes(std::span<const std::uint8_t> lengths,
                     std::span<std::uint32_t> codes) {
  int alphabet = static_cast<int>(lengths.size());
  std::vector<int> symbols;
  for (int s = 0; s < alphabet; ++s) {
    if (lengths[s] > 0) symbols.push_back(s);
  }
  std::sort(symbols.begin(), symbols.end(), [&](int a, int b) {
    if (lengths[a] != lengths[b]) return lengths[a] < lengths[b];
    return a < b;
  });
  std::uint32_t code = 0;
  int prev_len = 0;
  for (int s : symbols) {
    code <<= (lengths[s] - prev_len);
    codes[s] = code;
    prev_len = lengths[s];
    ++code;
  }
}

/// The low `len` bits of `code` in reverse order.
std::uint32_t reverse_bits(std::uint32_t code, int len) {
  std::uint32_t out = 0;
  for (int i = 0; i < len; ++i) {
    out = (out << 1) | (code & 1u);
    code >>= 1;
  }
  return out;
}

struct CanonicalDecoder {
  static constexpr int kMaxLen = 64;
  std::array<std::uint32_t, kMaxLen + 1> count{}, first_code{}, first_index{};
  std::vector<int> symbols;
  int max_len = 0;

  explicit CanonicalDecoder(std::span<const std::uint8_t> lengths) {
    int alphabet = static_cast<int>(lengths.size());
    for (int s = 0; s < alphabet; ++s) {
      if (lengths[s] > 0) {
        if (lengths[s] > kMaxLen) {
          throw std::runtime_error("huffman: bad table");
        }
        ++count[lengths[s]];
        max_len = std::max<int>(max_len, lengths[s]);
      }
    }
    std::uint32_t code = 0, index = 0;
    for (int len = 1; len <= max_len; ++len) {
      code <<= 1;
      first_code[len] = code;
      first_index[len] = index;
      code += count[len];
      index += count[len];
    }
    for (int len = 1; len <= max_len; ++len) {
      for (int s = 0; s < alphabet; ++s) {
        if (lengths[s] == len) symbols.push_back(s);
      }
    }
  }

  int decode_one(BitReader& bits) const {
    std::uint32_t v = 0;
    for (int len = 1; len <= max_len; ++len) {
      v = (v << 1) | bits.read(1);
      std::uint32_t offset = v - first_code[len];
      if (v >= first_code[len] && offset < count[len]) {
        return symbols[first_index[len] + offset];
      }
    }
    throw std::runtime_error("huffman: bad code");
  }
};

}  // namespace

std::vector<std::uint16_t> rle0_encode(BytesView mtf) {
  std::vector<std::uint16_t> out;
  out.reserve(mtf.size() / 2 + 16);
  std::size_t i = 0;
  auto emit_run = [&](std::size_t r) {
    // Bijective base-2 digits, least significant first: RUNA=0 (value 1),
    // RUNB=1 (value 2).
    while (r > 0) {
      if (r & 1) {
        out.push_back(0);
        r = (r - 1) / 2;
      } else {
        out.push_back(1);
        r = (r - 2) / 2;
      }
    }
  };
  while (i < mtf.size()) {
    if (mtf[i] == 0) {
      std::size_t run = 0;
      while (i < mtf.size() && mtf[i] == 0) {
        ++run;
        ++i;
      }
      emit_run(run);
    } else {
      out.push_back(static_cast<std::uint16_t>(mtf[i] + 1));
      ++i;
    }
  }
  return out;
}

Bytes rle0_decode(std::span<const std::uint16_t> symbols,
                  std::size_t max_output) {
  Bytes out;
  std::size_t i = 0;
  while (i < symbols.size()) {
    if (symbols[i] <= 1) {
      std::size_t run = 0, place = 1;
      while (i < symbols.size() && symbols[i] <= 1) {
        if (place > (std::size_t{1} << 48)) {
          throw std::runtime_error("rle0: run length overflow");
        }
        run += (symbols[i] == 0 ? 1u : 2u) * place;
        place *= 2;
        ++i;
      }
      if (out.size() + run > max_output) {
        throw std::runtime_error("rle0: output exceeds declared size");
      }
      out.insert(out.end(), run, 0);
    } else {
      if (symbols[i] >= kRle0Alphabet) {
        throw std::runtime_error("rle0: symbol out of range");
      }
      if (out.size() + 1 > max_output) {
        throw std::runtime_error("rle0: output exceeds declared size");
      }
      out.push_back(static_cast<std::uint8_t>(symbols[i] - 1));
      ++i;
    }
  }
  return out;
}

Bytes huffman_encode_sym(std::span<const std::uint16_t> symbols, int alphabet,
                         std::vector<std::uint8_t>& lengths_out) {
  std::vector<std::uint64_t> freq(static_cast<std::size_t>(alphabet), 0);
  for (std::uint16_t s : symbols) {
    if (s >= alphabet) throw std::invalid_argument("symbol out of alphabet");
    ++freq[s];
  }
  lengths_out.assign(static_cast<std::size_t>(alphabet), 0);
  huffman_lengths(freq, lengths_out);
  if (!lengths_out.empty() &&
      *std::max_element(lengths_out.begin(), lengths_out.end()) >
          kMaxCodeLength) {
    throw std::length_error("huffman: code longer than 32 bits");
  }
  std::vector<std::uint32_t> codes(static_cast<std::size_t>(alphabet), 0);
  canonical_codes(lengths_out, codes);
  // Codes are defined MSB-first (the decoder walks them bit by bit) but the
  // stream packs LSB-first, so emitting each code bit-reversed in one write
  // lays down exactly the bits of a one-bit-at-a-time MSB-first emission.
  for (std::size_t s = 0; s < codes.size(); ++s) {
    codes[s] = reverse_bits(codes[s], lengths_out[s]);
  }
  BitWriter bits;
  for (std::uint16_t s : symbols) bits.write(codes[s], lengths_out[s]);
  return bits.take();
}

std::vector<std::uint16_t> huffman_decode_sym(
    BytesView data, std::span<const std::uint8_t> lengths,
    std::size_t symbol_count) {
  CanonicalDecoder decoder{lengths};
  BitReader bits(data);
  std::vector<std::uint16_t> out;
  out.reserve(std::min<std::size_t>(symbol_count, 1u << 22));
  while (out.size() < symbol_count) {
    out.push_back(static_cast<std::uint16_t>(decoder.decode_one(bits)));
  }
  return out;
}

}  // namespace bwtdetail

namespace {

void append_u32(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t read_u32(BytesView in, std::size_t& at) {
  if (at + 4 > in.size()) throw std::runtime_error("bwt: truncated header");
  std::uint32_t v = static_cast<std::uint32_t>(in[at]) |
                    (static_cast<std::uint32_t>(in[at + 1]) << 8) |
                    (static_cast<std::uint32_t>(in[at + 2]) << 16) |
                    (static_cast<std::uint32_t>(in[at + 3]) << 24);
  at += 4;
  return v;
}

}  // namespace

Bytes BwtCodec::compress(BytesView input) const {
  using namespace bwtdetail;
  Bytes out;
  append_u32(out, static_cast<std::uint32_t>(input.size()));
  std::size_t offset = 0;
  while (offset < input.size()) {
    std::size_t len = std::min(block_size_, input.size() - offset);
    BytesView block = input.subspan(offset, len);
    offset += len;

    std::uint32_t primary = 0;
    Bytes transformed = bwt_forward(block, primary);
    Bytes mtf = mtf_encode(transformed);
    std::vector<std::uint16_t> symbols = rle0_encode(mtf);
    std::vector<std::uint8_t> lengths;
    Bytes packed = huffman_encode_sym(symbols, kRle0Alphabet, lengths);

    append_u32(out, static_cast<std::uint32_t>(len));
    append_u32(out, primary);
    append_u32(out, static_cast<std::uint32_t>(symbols.size()));
    append_u32(out, static_cast<std::uint32_t>(packed.size()));
    out.insert(out.end(), lengths.begin(), lengths.end());
    out.insert(out.end(), packed.begin(), packed.end());
  }
  return out;
}

Bytes BwtCodec::decompress(BytesView input) const {
  using namespace bwtdetail;
  std::size_t at = 0;
  std::uint32_t total = read_u32(input, at);
  Bytes out;
  out.reserve(std::min<std::size_t>(total, 1u << 22));
  while (out.size() < total) {
    std::uint32_t block_len = read_u32(input, at);
    std::uint32_t primary = read_u32(input, at);
    std::uint32_t sym_count = read_u32(input, at);
    std::uint32_t packed_len = read_u32(input, at);
    if (at + kRle0Alphabet + packed_len > input.size()) {
      throw std::runtime_error("bwt: truncated block");
    }
    std::span<const std::uint8_t> lengths =
        input.subspan(at, kRle0Alphabet);
    at += kRle0Alphabet;
    BytesView packed = input.subspan(at, packed_len);
    at += packed_len;

    std::vector<std::uint16_t> symbols =
        huffman_decode_sym(packed, lengths, sym_count);
    Bytes mtf = rle0_decode(symbols, block_len);
    if (mtf.size() != block_len) throw std::runtime_error("bwt: bad block");
    Bytes transformed = mtf_decode(mtf);
    Bytes block = bwt_inverse(transformed, primary);
    out.insert(out.end(), block.begin(), block.end());
  }
  if (out.size() != total) throw std::runtime_error("bwt: size mismatch");
  return out;
}

}  // namespace avf::codec

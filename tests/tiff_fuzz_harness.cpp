#include "tests/tiff_fuzz_harness.hpp"

#include <cstring>
#include <utility>

#include "zenesis/io/tiff_stream.hpp"

namespace zenesis::io::fuzz {
namespace {

// --- deterministic RNG (SplitMix64) ------------------------------------

struct Rng {
  std::uint64_t state;

  explicit Rng(std::uint64_t seed) : state(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n). n must be > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

// --- corpus -------------------------------------------------------------

template <typename T>
image::Image<T> ramp_page(std::int64_t w, std::int64_t h, std::int64_t page) {
  image::Image<T> img(w, h);
  // Per-sample-width scaling so multi-byte samples exercise both bytes.
  const std::uint64_t scale = sizeof(T) == 1 ? 1 : sizeof(T) == 2 ? 257 : 65537;
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      const std::uint64_t v = (static_cast<std::uint64_t>(x) + 7 * y + 37 * page) * scale;
      img.at(x, y) = static_cast<T>(v);
    }
  }
  return img;
}

TiffStack make_stack(int bits, std::int64_t w, std::int64_t h,
                     std::int64_t pages) {
  TiffStack stack;
  for (std::int64_t p = 0; p < pages; ++p) {
    if (bits == 8) {
      stack.pages.emplace_back(ramp_page<std::uint8_t>(w, h, p));
    } else if (bits == 16) {
      stack.pages.emplace_back(ramp_page<std::uint16_t>(w, h, p));
    } else {
      stack.pages.emplace_back(ramp_page<std::uint32_t>(w, h, p));
    }
  }
  return stack;
}

}  // namespace

namespace {

const char* comp_name(TiffCompression comp) {
  switch (comp) {
    case TiffCompression::kNone: return "_none";
    case TiffCompression::kPackBits: return "_packbits";
    case TiffCompression::kLzw: return "_lzw";
    case TiffCompression::kDeflate: return "_deflate";
  }
  return "_unknown";
}

}  // namespace

std::vector<CorpusEntry> build_corpus() {
  std::vector<CorpusEntry> corpus;
  const int kBits[] = {8, 16, 32};
  // Odd width so tile/strip edge handling is always in play.
  const std::int64_t w = 19, h = 11, pages = 2;
  for (const TiffFormat fmt : {TiffFormat::kClassic, TiffFormat::kBigTiff}) {
    for (const TiffLayout layout : {TiffLayout::kStrips, TiffLayout::kTiles}) {
      for (const TiffCompression comp :
           {TiffCompression::kNone, TiffCompression::kPackBits,
            TiffCompression::kLzw, TiffCompression::kDeflate}) {
        // Predictor variants only where they change the code stream.
        const bool codec = comp == TiffCompression::kLzw ||
                           comp == TiffCompression::kDeflate;
        for (const int predictor : {1, 2}) {
          if (predictor == 2 && !codec) continue;
          for (const int bits : kBits) {
            for (const bool be : {false, true}) {
              TiffWriteOptions opt;
              opt.format = fmt;
              opt.layout = layout;
              opt.compression = comp;
              opt.predictor = predictor;
              opt.rows_per_strip = 4;  // multiple strips per page
              opt.tile_width = 16;
              opt.tile_height = 16;
              opt.big_endian = be;
              CorpusEntry e;
              e.name =
                  std::string(fmt == TiffFormat::kBigTiff ? "big" : "classic") +
                  (layout == TiffLayout::kTiles ? "_tiles" : "_strips") +
                  comp_name(comp) + (predictor == 2 ? "_pred" : "") + "_u" +
                  std::to_string(bits) + (be ? "_be" : "_le");
              e.bytes = write_tiff_bytes(make_stack(bits, w, h, pages), opt);
              corpus.push_back(std::move(e));
            }
          }
        }
      }
    }
  }
  // MinIsWhite variants (photometric 0), one classic and one BigTIFF.
  for (const TiffFormat fmt : {TiffFormat::kClassic, TiffFormat::kBigTiff}) {
    TiffWriteOptions opt;
    opt.format = fmt;
    opt.min_is_white = true;
    opt.rows_per_strip = 4;
    CorpusEntry e;
    e.name = std::string(fmt == TiffFormat::kBigTiff ? "big" : "classic") +
             "_miniswhite_u16_le";
    e.bytes = write_tiff_bytes(make_stack(16, w, h, pages), opt);
    corpus.push_back(std::move(e));
  }
  return corpus;
}

namespace {

// --- structure scan -----------------------------------------------------
// Walks a *well-formed* file (the pristine corpus entry) and records where
// the interesting bytes live, so mutations hit real parser decision points
// instead of mostly landing in pixel data.

struct EntryLoc {
  std::uint64_t off;  ///< file offset of the 12/20-byte IFD entry
  std::uint16_t tag;
};

struct Scan {
  bool be = false;
  bool big = false;
  std::vector<std::uint64_t> ifd_offsets;
  /// Offsets of every next-IFD pointer field, including the header's
  /// first-IFD pointer. Pointer width is 4 (classic) or 8 (BigTIFF).
  std::vector<std::uint64_t> link_offsets;
  std::vector<EntryLoc> entries;
};

std::uint64_t rd(const std::vector<std::uint8_t>& b, std::uint64_t off,
                 std::size_t n, bool be) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t byte = b[static_cast<std::size_t>(off) + i];
    v |= static_cast<std::uint64_t>(byte) << (be ? 8 * (n - 1 - i) : 8 * i);
  }
  return v;
}

void wr(std::vector<std::uint8_t>& b, std::uint64_t off, std::size_t n,
        bool be, std::uint64_t v) {
  if (off + n > b.size()) return;  // mutation out of range: skip silently
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t byte =
        static_cast<std::uint8_t>(v >> (be ? 8 * (n - 1 - i) : 8 * i));
    b[static_cast<std::size_t>(off) + i] = byte;
  }
}

Scan scan_structure(const std::vector<std::uint8_t>& b) {
  Scan s;
  s.be = b.at(0) == 'M';
  s.big = rd(b, 2, 2, s.be) == 43;
  const std::size_t psz = s.big ? 8 : 4;   // pointer width
  const std::size_t esz = s.big ? 20 : 12; // entry width
  std::uint64_t link = s.big ? 8 : 4;      // header's first-IFD pointer
  s.link_offsets.push_back(link);
  std::uint64_t ifd = rd(b, link, psz, s.be);
  while (ifd != 0 && s.ifd_offsets.size() < 64) {
    s.ifd_offsets.push_back(ifd);
    const std::uint64_t n = s.big ? rd(b, ifd, 8, s.be) : rd(b, ifd, 2, s.be);
    const std::uint64_t base = ifd + (s.big ? 8 : 2);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t off = base + i * esz;
      s.entries.push_back(
          EntryLoc{off, static_cast<std::uint16_t>(rd(b, off, 2, s.be))});
    }
    link = base + n * esz;
    s.link_offsets.push_back(link);
    ifd = rd(b, link, psz, s.be);
  }
  return s;
}

// --- mutation engine ----------------------------------------------------

void mutate(std::vector<std::uint8_t>& m, const Scan& s, Rng& rng) {
  const std::size_t psz = s.big ? 8 : 4;
  switch (rng.below(12)) {
    case 0: {  // truncation (keep at least one byte)
      m.resize(1 + static_cast<std::size_t>(rng.below(m.size() - 1)));
      break;
    }
    case 1: {  // raw byte flips
      const std::uint64_t flips = 1 + rng.below(4);
      for (std::uint64_t i = 0; i < flips; ++i) {
        m[static_cast<std::size_t>(rng.below(m.size()))] ^=
            static_cast<std::uint8_t>(1 + rng.below(255));
      }
      break;
    }
    case 2: {  // entry type flip
      if (s.entries.empty()) break;
      const EntryLoc& e = s.entries[rng.below(s.entries.size())];
      const std::uint16_t types[] = {0, 1, 2, 3, 4, 5, 7, 11, 12, 16, 17, 0xFFFF};
      wr(m, e.off + 2, 2, s.be, types[rng.below(std::size(types))]);
      break;
    }
    case 3: {  // entry count rewrite
      if (s.entries.empty()) break;
      const EntryLoc& e = s.entries[rng.below(s.entries.size())];
      const std::uint64_t counts[] = {0,      1,          2,
                                      5,      0xFFFF,     0xFFFFFFFFull,
                                      m.size(), 0x7FFFFFFFFFFFFFFFull};
      wr(m, e.off + 4, s.big ? 8 : 4, s.be, counts[rng.below(std::size(counts))]);
      break;
    }
    case 4: {  // entry value / external offset rewrite
      if (s.entries.empty()) break;
      const EntryLoc& e = s.entries[rng.below(s.entries.size())];
      const std::uint64_t sz = m.size();
      const std::uint64_t values[] = {0,      1,      7,         sz - 1,
                                      sz,     sz + 4096, 0xFFFFFFF0ull,
                                      0xFFFFFFFFFFFFF0ull};
      wr(m, e.off + (s.big ? 12 : 8), psz, s.be,
         values[rng.below(std::size(values))]);
      break;
    }
    case 5: {  // next-IFD graft: cycles, self-loops, garbage targets
      if (s.link_offsets.empty()) break;
      const std::uint64_t link = s.link_offsets[rng.below(s.link_offsets.size())];
      std::uint64_t target = 0;
      switch (rng.below(4)) {
        case 0:
          target = s.ifd_offsets.empty() ? 8 : s.ifd_offsets.front();
          break;  // back-edge to first IFD
        case 1:
          target = s.ifd_offsets.empty() ? 8 : s.ifd_offsets.back();
          break;  // self-loop on last IFD
        case 2:
          target = s.entries.empty() ? 1 : s.entries.front().off;
          break;  // "IFD" aimed at an entry table
        default:
          target = 1;  // odd offset inside the header
          break;
      }
      wr(m, link, psz, s.be, target);
      break;
    }
    case 6: {  // dimension bomb on width/height/bits
      for (const EntryLoc& e : s.entries) {
        if (e.tag != 256 && e.tag != 257 && e.tag != 258) continue;
        const std::uint64_t bombs[] = {0, 0x10000, 0xFFFFFFFFull};
        wr(m, e.off + (s.big ? 12 : 8), psz, s.be,
           bombs[rng.below(std::size(bombs))]);
        if (rng.below(2) == 0) break;  // sometimes bomb several tags
      }
      break;
    }
    case 7: {  // header corruption
      const std::size_t span = s.big ? 16 : 8;
      const std::uint64_t off = rng.below(span);
      m[static_cast<std::size_t>(off)] =
          static_cast<std::uint8_t>(rng.next() & 0xFF);
      break;
    }
    // --- codec-aware mutations: drive the LZW/Deflate/predictor decode
    // paths into their error branches instead of the IFD parser's.
    case 8: {  // compression tag rewrite: decode a stream with the wrong
               // codec (raw bytes as LZW codes, LZW as zlib, ...)
      for (const EntryLoc& e : s.entries) {
        if (e.tag != 259) continue;
        const std::uint64_t codecs[] = {1, 5, 8, 32773, 32946, 6, 0xDEAD};
        wr(m, e.off + (s.big ? 12 : 8), psz, s.be,
           codecs[rng.below(std::size(codecs))]);
      }
      break;
    }
    case 9: {  // predictor tag rewrite: undo differencing that never
               // happened, or demand an unsupported predictor
      for (const EntryLoc& e : s.entries) {
        if (e.tag != 317) continue;
        const std::uint64_t preds[] = {0, 1, 2, 3, 34892, 0xFFFF};
        wr(m, e.off + (s.big ? 12 : 8), psz, s.be,
           preds[rng.below(std::size(preds))]);
      }
      break;
    }
    case 10: {  // segment-data corruption: flip a burst inside the pixel/
                // code-stream region (between header and first IFD) so
                // compressed streams truncate or desync mid-decode
      const std::uint64_t lo = s.big ? 16 : 8;
      const std::uint64_t hi =
          s.ifd_offsets.empty() ? m.size() : s.ifd_offsets.front();
      if (hi <= lo) break;
      const std::uint64_t burst = 1 + rng.below(16);
      const std::uint64_t start = lo + rng.below(hi - lo);
      for (std::uint64_t i = 0; i < burst && start + i < hi; ++i) {
        m[static_cast<std::size_t>(start + i)] =
            static_cast<std::uint8_t>(rng.next() & 0xFF);
      }
      break;
    }
    default: {  // byte-count bomb on Strip/TileByteCounts (279/325):
                // declared compressed size wildly off the actual stream
      for (const EntryLoc& e : s.entries) {
        if (e.tag != 279 && e.tag != 325) continue;
        const std::uint64_t bombs[] = {0, 1, 3, m.size(),
                                       0xFFFFFFF0ull, 0x7FFFFFFFFFFFFFFFull};
        wr(m, e.off + (s.big ? 12 : 8), psz, s.be,
           bombs[rng.below(std::size(bombs))]);
        if (rng.below(2) == 0) break;  // sometimes bomb only one tag
      }
      break;
    }
  }
}

// --- invariant check ----------------------------------------------------

void note_failure(FuzzStats& st, std::string msg) {
  if (st.failures.size() < 20) st.failures.push_back(std::move(msg));
}

/// Runs one byte buffer through both readers. Returns true if the
/// materializing reader decoded it fully.
bool check_one(const std::string& label, const std::vector<std::uint8_t>& bytes,
               const TiffReadLimits& limits, FuzzStats& st) {
  bool decoded = false;
  try {
    const TiffStack stack = read_tiff_bytes(bytes, limits);
    decoded = !stack.pages.empty();
    if (!decoded) note_failure(st, label + ": decoded to an empty stack");
  } catch (const TiffError& e) {
    const int kind = static_cast<int>(e.kind());
    if (kind < 0 || kind >= 6) {
      note_failure(st, label + ": TiffError with out-of-range kind");
    } else {
      ++st.kind_counts[kind];
    }
    if (std::strstr(e.what(), "tiff:") == nullptr) {
      note_failure(st, label + ": what() missing taxonomy prefix: " + e.what());
    }
  } catch (const std::exception& e) {
    note_failure(st, label + ": non-TiffError escaped read_tiff_bytes: " +
                         std::string(e.what()));
  } catch (...) {
    note_failure(st, label + ": non-std exception escaped read_tiff_bytes");
  }
  // The streaming reader must uphold the identical contract, including
  // during on-demand page decode.
  try {
    const TiffVolumeReader reader = TiffVolumeReader::open(bytes, limits);
    for (std::int64_t p = 0; p < reader.pages(); ++p) {
      try {
        (void)reader.read_page(p);
      } catch (const TiffError&) {
      }
    }
  } catch (const TiffError&) {
  } catch (const std::exception& e) {
    note_failure(st, label + ": non-TiffError escaped TiffVolumeReader: " +
                         std::string(e.what()));
  } catch (...) {
    note_failure(st, label + ": non-std exception escaped TiffVolumeReader");
  }
  return decoded;
}

}  // namespace

FuzzStats run_fuzz(std::uint64_t seed, std::size_t mutants_per_entry,
                   const TiffReadLimits& limits) {
  FuzzStats st;
  const std::vector<CorpusEntry> corpus = build_corpus();
  for (const CorpusEntry& entry : corpus) {
    // The pristine entry must decode — this pins writer/reader agreement
    // and guarantees the fuzzer starts from valid structure.
    if (!check_one(entry.name + "[pristine]", entry.bytes, limits, st)) {
      note_failure(st, entry.name + ": pristine corpus entry failed to decode");
    }
    const Scan scan = scan_structure(entry.bytes);
    for (std::size_t i = 0; i < mutants_per_entry; ++i) {
      // Seed folding keeps every mutant independent of corpus order.
      Rng rng(seed ^ (0x51ED270B1ull * (st.mutants + 1)));
      std::vector<std::uint8_t> mutant = entry.bytes;
      mutate(mutant, scan, rng);
      ++st.mutants;
      if (check_one(entry.name + "[" + std::to_string(i) + "]", mutant, limits,
                    st)) {
        ++st.decoded;
      } else {
        ++st.rejected;
      }
    }
  }
  return st;
}

}  // namespace zenesis::io::fuzz

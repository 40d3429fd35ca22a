#include "parsers/simple_format.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string_view>
#include <type_traits>

namespace mclg {
namespace {

void fail(ParseError* error, int line, const std::string& what,
          const std::string& token = std::string()) {
  if (error != nullptr) {
    error->file = "<mclg>";
    error->line = line;
    error->token = token;
    error->message = what;
  }
}

// ---- Writer ----------------------------------------------------------------

/// No integer or `%.17g` double prints longer: "-2.2250738585072014e-308"
/// is 24 characters.
constexpr std::size_t kMaxField = 24;

/// Builds the text in one string. Doubles print as `%.17g` (general
/// format, 17 significant digits: max_digits10, so they round-trip
/// losslessly).
class TextWriter {
 public:
  explicit TextWriter(std::size_t reserve) { out_.reserve(reserve); }

  /// A keyword and its fields, separated by single spaces, then '\n'.
  template <typename... Fields>
  void line(const char* keyword, const Fields&... fields) {
    start(keyword, fields...);
    endLine();
  }

  /// Starts a line that `fields` continues and `endLine` ends.
  template <typename... Fields>
  void start(const char* keyword, const Fields&... fields) {
    out_ += keyword;
    this->fields(fields...);
  }
  template <typename... Fields>
  void fields(const Fields&... fields) {
    ((out_ += ' ', put(fields)), ...);
  }
  void endLine() { out_ += '\n'; }

  std::string take() { return std::move(out_); }

 private:
  void put(const std::string& text) { out_ += text; }
  void put(double value) {
    char buf[kMaxField];
    const auto result = std::to_chars(buf, buf + sizeof buf, value,
                                      std::chars_format::general, 17);
    out_.append(buf, result.ptr);
  }
  template <typename T>
    requires std::is_integral_v<T>
  void put(T value) {
    char buf[kMaxField];
    const auto result = std::to_chars(buf, buf + sizeof buf, value);
    out_.append(buf, result.ptr);
  }

  std::string out_;
};

/// An upper bound on the written size, so the text is built in one
/// allocation: every field at its longest, plus a space, plus the names.
std::size_t maxTextSize(const Design& design) {
  const std::size_t classes = design.numEdgeClasses;
  std::size_t fields = 16 + 4 * classes * classes;
  std::size_t names = design.name.size();
  for (const auto& type : design.types) {
    fields += 8 + 6 * type.pins.size();
    names += type.name.size();
  }
  for (const auto& fence : design.fences) {
    fields += 3 + 5 * fence.rects.size();
    names += fence.name.size();
  }
  fields += 4 * (design.hRails.size() + design.vRails.size()) +
            6 * design.ioPins.size() + 9 * design.cells.size();
  for (const auto& net : design.nets) fields += 2 + 2 * net.conns.size();
  return (kMaxField + 1) * fields + names;
}

// ---- Reader ----------------------------------------------------------------

/// The C locale's isspace set. '\n' never occurs inside a line.
bool isSpace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f' ||
         c == '\n';
}

/// One line of the text, read field by field. Each read skips leading
/// whitespace; a number ends at the first character that cannot continue
/// it, and the next field starts right there (docs/FORMATS.md lists the
/// rules).
class LineCursor {
 public:
  LineCursor() = default;
  LineCursor(const char* begin, const char* end) : p_(begin), end_(end) {}

  /// Drop everything from the first '#' on.
  void cutComment() {
    const void* hash =
        std::memchr(p_, '#', static_cast<std::size_t>(end_ - p_));
    if (hash != nullptr) end_ = static_cast<const char*>(hash);
  }

  /// The next whitespace-delimited token; empty at the end of the line.
  std::string_view token() {
    skipSpace();
    const char* start = p_;
    while (p_ != end_ && !isSpace(*p_)) ++p_;
    return {start, static_cast<std::size_t>(p_ - start)};
  }

  bool read(std::string& out) {
    const std::string_view word = token();
    if (word.empty()) return false;
    out.assign(word);
    return true;
  }

  /// Optional sign, then decimal digits. A value outside T's range fails;
  /// a negative value read into an unsigned T wraps, as operator>> does.
  template <typename T>
    requires std::is_integral_v<T>
  bool read(T& out) {
    skipSpace();
    bool negative = false;
    if (p_ != end_ && (*p_ == '+' || *p_ == '-')) {
      negative = *p_ == '-';
      ++p_;
    }
    std::uint64_t magnitude = 0;
    const auto [next, ec] = std::from_chars(p_, end_, magnitude);
    if (ec != std::errc()) return false;
    p_ = next;
    std::uint64_t limit = std::numeric_limits<T>::max();
    if (std::is_signed_v<T> && negative) ++limit;
    if (magnitude > limit) return false;
    out = static_cast<T>(negative ? 0 - magnitude : magnitude);
    return true;
  }

  /// Optional sign, then digits with at most one '.', then an optional
  /// exponent `e`/`E`, sign, digits. The whole span must be a number: "1e",
  /// "." and a lone sign fail, and so do inf, nan and hex floats (their
  /// letters end the span). Overflow fails; underflow reads as zero.
  bool read(double& out) {
    skipSpace();
    const char* start = p_;
    if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
    bool mantissa = false, dot = false, exponent = false;
    for (; p_ != end_; ++p_) {
      const char c = *p_;
      if (c >= '0' && c <= '9') {
        mantissa = true;
      } else if (c == '.' && !dot && !exponent) {
        dot = true;
      } else if ((c == 'e' || c == 'E') && mantissa && !exponent) {
        exponent = true;
        if (p_ + 1 != end_ && (p_[1] == '+' || p_[1] == '-')) ++p_;
      } else {
        break;
      }
    }
    const char* first = start != p_ && *start == '+' ? start + 1 : start;
    const auto [next, ec] =
        std::from_chars(first, p_, out, std::chars_format::general);
    if (ec == std::errc::result_out_of_range) {
      return readOutOfRange(start, out);
    }
    return ec == std::errc() && next == p_;
  }

 private:
  void skipSpace() {
    while (p_ != end_ && isSpace(*p_)) ++p_;
  }

  /// from_chars reports underflow and overflow alike; strtod tells them
  /// apart (an overflow is ±HUGE_VAL).
  bool readOutOfRange(const char* start, double& out) const {
    const std::string span(start, p_);
    char* stop = nullptr;
    const double value = std::strtod(span.c_str(), &stop);
    if (stop != span.c_str() + span.size() || std::isinf(value)) {
      return false;
    }
    out = value;
    return true;
  }

  const char* p_ = nullptr;
  const char* end_ = nullptr;
};

/// Walks the text line by line ('\n' ends a line; a last line without one
/// still counts) and numbers the lines from 1.
class LineReader {
 public:
  explicit LineReader(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  bool next(LineCursor& line) {
    if (p_ == end_) return false;
    const void* nl =
        std::memchr(p_, '\n', static_cast<std::size_t>(end_ - p_));
    const char* lineEnd = nl != nullptr ? static_cast<const char*>(nl) : end_;
    line = LineCursor(p_, lineEnd);
    p_ = nl != nullptr ? lineEnd + 1 : end_;
    ++lineNo_;
    return true;
  }

  int lineNo() const { return lineNo_; }

 private:
  const char* p_;
  const char* end_;
  int lineNo_ = 0;
};

template <typename... Fields>
bool readAll(LineCursor& line, Fields&... fields) {
  return (line.read(fields) && ...);
}

}  // namespace

std::string writeSimpleFormat(const Design& design) {
  TextWriter out(maxTextSize(design));
  out.line("MCLG", 1);
  out.line("DESIGN", design.name);
  out.line("CORE", design.numSitesX, design.numRows, design.siteWidthFactor);
  out.line("EDGECLASSES", design.numEdgeClasses);
  for (int a = 0; a < design.numEdgeClasses; ++a) {
    for (int b = 0; b < design.numEdgeClasses; ++b) {
      const int s = design.edgeSpacing(a, b);
      if (s != 0) out.line("EDGESPACING", a, b, s);
    }
  }
  for (const auto& type : design.types) {
    out.line("TYPE", type.name, type.width, type.height, type.parity,
             type.leftEdge, type.rightEdge, type.pins.size());
    for (const auto& pin : type.pins) {
      out.line("PIN", pin.layer, pin.rect.xlo, pin.rect.ylo, pin.rect.xhi,
               pin.rect.yhi);
    }
  }
  for (std::size_t f = 1; f < design.fences.size(); ++f) {
    const auto& fence = design.fences[f];
    out.line("FENCE", fence.name, fence.rects.size());
    for (const auto& rect : fence.rects) {
      out.line("RECT", rect.xlo, rect.ylo, rect.xhi, rect.yhi);
    }
  }
  for (const auto& rail : design.hRails) {
    out.line("HRAIL", rail.layer, rail.yFineLo, rail.yFineHi);
  }
  for (const auto& rail : design.vRails) {
    out.line("VRAIL", rail.layer, rail.xFineLo, rail.xFineHi);
  }
  for (const auto& pin : design.ioPins) {
    out.line("IOPIN", pin.layer, pin.rect.xlo, pin.rect.ylo, pin.rect.xhi,
             pin.rect.yhi);
  }
  for (const auto& cell : design.cells) {
    out.line("CELL", cell.type, cell.gpX, cell.gpY, cell.fence,
             cell.fixed ? 1 : 0, cell.placed ? 1 : 0, cell.x, cell.y);
  }
  for (const auto& net : design.nets) {
    out.start("NET", net.conns.size());
    for (const auto& conn : net.conns) out.fields(conn.cell, conn.pin);
    out.endLine();
  }
  out.line("END");
  return out.take();
}

std::optional<Design> readSimpleFormat(const std::string& text,
                                       std::string* error) {
  ParseError parseError;
  auto design = readSimpleFormat(text, &parseError);
  if (!design && error != nullptr) *error = parseError.str();
  return design;
}

std::optional<Design> readSimpleFormat(const std::string& text,
                                       ParseError* error) {
  LineReader lines(text);
  LineCursor ls;
  Design design;
  bool sawHeader = false;
  bool sawEnd = false;

  while (lines.next(ls)) {
    const int lineNo = lines.lineNo();
    ls.cutComment();
    const std::string_view key = ls.token();
    if (key.empty()) continue;  // blank

    if (key == "MCLG") {
      int version = 0;
      if (!ls.read(version) || version != 1) {
        fail(error, lineNo, "unsupported version");
        return std::nullopt;
      }
      sawHeader = true;
    } else if (!sawHeader) {
      fail(error, lineNo, "missing MCLG header");
      return std::nullopt;
    } else if (key == "DESIGN") {
      ls.read(design.name);  // a missing name leaves it as it was
    } else if (key == "CORE") {
      if (!readAll(ls, design.numSitesX, design.numRows,
                   design.siteWidthFactor)) {
        fail(error, lineNo, "bad CORE");
        return std::nullopt;
      }
    } else if (key == "EDGECLASSES") {
      if (!ls.read(design.numEdgeClasses) || design.numEdgeClasses < 1) {
        fail(error, lineNo, "bad EDGECLASSES");
        return std::nullopt;
      }
      design.edgeSpacingTable.assign(
          static_cast<std::size_t>(design.numEdgeClasses) *
              design.numEdgeClasses,
          0);
    } else if (key == "EDGESPACING") {
      int a = 0, b = 0, s = 0;
      if (!readAll(ls, a, b, s) || a < 0 || b < 0 ||
          a >= design.numEdgeClasses || b >= design.numEdgeClasses) {
        fail(error, lineNo, "bad EDGESPACING");
        return std::nullopt;
      }
      design.edgeSpacingTable[static_cast<std::size_t>(a) *
                                  design.numEdgeClasses +
                              b] = s;
    } else if (key == "TYPE") {
      CellType type;
      std::size_t numPins = 0;
      if (!readAll(ls, type.name, type.width, type.height, type.parity,
                   type.leftEdge, type.rightEdge, numPins)) {
        fail(error, lineNo, "bad TYPE");
        return std::nullopt;
      }
      // PIN lines are read raw: no comment or blank line may sit between.
      for (std::size_t p = 0; p < numPins; ++p) {
        LineCursor ps;
        if (!lines.next(ps)) {
          fail(error, lines.lineNo(), "truncated PIN list");
          return std::nullopt;
        }
        PinShape pin;
        if (ps.token() != "PIN" ||
            !readAll(ps, pin.layer, pin.rect.xlo, pin.rect.ylo, pin.rect.xhi,
                     pin.rect.yhi)) {
          fail(error, lines.lineNo(), "bad PIN");
          return std::nullopt;
        }
        type.pins.push_back(pin);
      }
      design.types.push_back(std::move(type));
    } else if (key == "FENCE") {
      Fence fence;
      std::size_t numRects = 0;
      if (!readAll(ls, fence.name, numRects)) {
        fail(error, lineNo, "bad FENCE");
        return std::nullopt;
      }
      for (std::size_t r = 0; r < numRects; ++r) {
        LineCursor rs;
        if (!lines.next(rs)) {
          fail(error, lines.lineNo(), "truncated RECT list");
          return std::nullopt;
        }
        Rect rect;
        if (rs.token() != "RECT" ||
            !readAll(rs, rect.xlo, rect.ylo, rect.xhi, rect.yhi)) {
          fail(error, lines.lineNo(), "bad RECT");
          return std::nullopt;
        }
        fence.rects.push_back(rect);
      }
      design.fences.push_back(std::move(fence));
    } else if (key == "HRAIL") {
      HRail rail;
      if (!readAll(ls, rail.layer, rail.yFineLo, rail.yFineHi)) {
        fail(error, lineNo, "bad HRAIL");
        return std::nullopt;
      }
      design.hRails.push_back(rail);
    } else if (key == "VRAIL") {
      VRail rail;
      if (!readAll(ls, rail.layer, rail.xFineLo, rail.xFineHi)) {
        fail(error, lineNo, "bad VRAIL");
        return std::nullopt;
      }
      design.vRails.push_back(rail);
    } else if (key == "IOPIN") {
      IoPin pin;
      if (!readAll(ls, pin.layer, pin.rect.xlo, pin.rect.ylo, pin.rect.xhi,
                   pin.rect.yhi)) {
        fail(error, lineNo, "bad IOPIN");
        return std::nullopt;
      }
      design.ioPins.push_back(pin);
    } else if (key == "CELL") {
      Cell cell;
      int fixed = 0, placed = 0;
      if (!readAll(ls, cell.type, cell.gpX, cell.gpY, cell.fence, fixed,
                   placed, cell.x, cell.y)) {
        fail(error, lineNo, "bad CELL");
        return std::nullopt;
      }
      cell.fixed = fixed != 0;
      cell.placed = placed != 0;
      if (cell.type < 0 || cell.type >= design.numTypes()) {
        fail(error, lineNo, "CELL type out of range");
        return std::nullopt;
      }
      design.cells.push_back(cell);
    } else if (key == "NET") {
      std::size_t numConns = 0;
      if (!ls.read(numConns)) {
        fail(error, lineNo, "bad NET");
        return std::nullopt;
      }
      Net net;
      for (std::size_t i = 0; i < numConns; ++i) {
        Net::Conn conn;
        if (!readAll(ls, conn.cell, conn.pin)) {
          fail(error, lineNo, "truncated NET");
          return std::nullopt;
        }
        net.conns.push_back(conn);
      }
      design.nets.push_back(std::move(net));
    } else if (key == "END") {
      sawEnd = true;
      break;
    } else {
      fail(error, lineNo, "unknown keyword", std::string(key));
      return std::nullopt;
    }
  }
  if (!sawEnd) {
    fail(error, lines.lineNo(), "missing END");
    return std::nullopt;
  }
  std::string what;
  if (!design.check(&what)) {
    fail(error, lines.lineNo(), "inconsistent design: " + what);
    return std::nullopt;
  }
  return design;
}

bool saveDesign(const Design& design, const std::string& path) {
  const std::string text = writeSimpleFormat(design);
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.close();
  return !out.fail();
}

std::optional<Design> loadDesign(const std::string& path, std::string* error) {
  ParseError parseError;
  auto design = loadDesign(path, &parseError);
  if (!design && error != nullptr) *error = parseError.str();
  return design;
}

std::optional<Design> loadDesign(const std::string& path, ParseError* error) {
  std::ifstream in(path, std::ios::binary);
  // A regular file is read in one call of its size (+1 to see the end); a
  // pipe is read to its end in growing chunks.
  std::error_code sizeError;
  const auto size = std::filesystem::file_size(path, sizeError);
  std::string text(sizeError ? 1 << 16 : size + 1, '\0');
  std::size_t used = 0;
  while (in) {
    in.read(text.data() + used,
            static_cast<std::streamsize>(text.size() - used));
    used += static_cast<std::size_t>(in.gcount());
    if (used == text.size()) text.resize(2 * text.size());
  }
  if (!in.eof() || in.bad()) {
    if (error != nullptr) {
      error->file = path;
      error->line = 0;
      error->message = "cannot open file";
    }
    return std::nullopt;
  }
  text.resize(used);
  auto design = readSimpleFormat(text, error);
  if (!design && error != nullptr) error->file = path;
  return design;
}

}  // namespace mclg

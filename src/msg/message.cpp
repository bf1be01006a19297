#include "msg/message.hpp"

#include <algorithm>
#include <cstring>

namespace simfs::msg {
namespace {

// --- Sink primitive writers (little-endian, matching the original
// --- string-based encoder byte for byte). Templated on the sink so the
// --- same serializer fills a growable WireBuffer or a caller-provided
// --- fixed region (a reserved shm ring slot) alike. -------------------------

/// Fixed-region sink: the caller guarantees encodedSize(m) bytes at `at`.
struct FixedSink {
  char* at;
  char* grow(std::size_t n) {
    char* p = at;
    at += n;
    return p;
  }
  void append(const void* p, std::size_t n) {
    if (n == 0) return;  // as WireBuffer::append: `p` may be null
    std::memcpy(grow(n), p, n);
  }
};

template <typename Sink>
void putU16(Sink& out, std::uint16_t v) {
  char* p = out.grow(2);
  p[0] = static_cast<char>(v & 0xFF);
  p[1] = static_cast<char>((v >> 8) & 0xFF);
}

template <typename Sink>
void putU32(Sink& out, std::uint32_t v) {
  char* p = out.grow(4);
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

template <typename Sink>
void putU64(Sink& out, std::uint64_t v) {
  char* p = out.grow(8);
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

template <typename Sink>
void putStr(Sink& out, std::string_view s) {
  putU32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s.data(), s.size());
}

[[nodiscard]] std::uint32_t readU32(const char* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[i]))
         << (8 * i);
  }
  return v;
}

[[nodiscard]] std::uint64_t readU64(const char* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(p[i]))
         << (8 * i);
  }
  return v;
}

/// The one serializer, templated on the sink only: owned Messages reach
/// it through RefOf, so there is exactly one field order on the wire.
template <typename Sink>
void encodePayloadImpl(const MessageRef& m, Sink& out) {
  putU16(out, static_cast<std::uint16_t>(m.type));
  putU64(out, m.requestId);
  putU32(out, static_cast<std::uint32_t>(m.code));
  putU64(out, static_cast<std::uint64_t>(m.intArg));
  putU64(out, static_cast<std::uint64_t>(m.intArg2));
  putU16(out, m.hops);
  putStr(out, m.context);
  putStr(out, m.text);
  putU32(out, static_cast<std::uint32_t>(m.files.size()));
  for (const auto& f : m.files) putStr(out, f);
  putU32(out, static_cast<std::uint32_t>(m.ints.size()));
  for (const std::int64_t v : m.ints) putU64(out, static_cast<std::uint64_t>(v));
}

/// Bounds-checked cursor used only by parse(); after validation the view
/// iterators run uncheck-ed over the recorded regions.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  [[nodiscard]] bool getU16(std::uint16_t& v) {
    if (pos_ + 2 > data_.size()) return false;
    v = static_cast<std::uint16_t>(
        static_cast<std::uint8_t>(data_[pos_]) |
        (static_cast<std::uint8_t>(data_[pos_ + 1]) << 8));
    pos_ += 2;
    return true;
  }

  [[nodiscard]] bool getU32(std::uint32_t& v) {
    if (pos_ + 4 > data_.size()) return false;
    v = readU32(data_.data() + pos_);
    pos_ += 4;
    return true;
  }

  [[nodiscard]] bool getU64(std::uint64_t& v) {
    if (pos_ + 8 > data_.size()) return false;
    v = readU64(data_.data() + pos_);
    pos_ += 8;
    return true;
  }

  [[nodiscard]] bool getStrView(std::string_view& s) {
    std::uint32_t len = 0;
    if (!getU32(len)) return false;
    if (pos_ + len > data_.size()) return false;
    s = data_.substr(pos_, len);
    pos_ += len;
    return true;
  }

  /// Skips one length-prefixed string, bounds-checked.
  [[nodiscard]] bool skipStr() {
    std::string_view ignored;
    return getStrView(ignored);
  }

  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }
  void advance(std::size_t n) noexcept { pos_ += n; }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace

// --------------------------------------------------------------- MessageView

std::string_view MessageView::FileIterator::operator*() const {
  const std::uint32_t len = readU32(at_);
  return {at_ + 4, len};
}

MessageView::FileIterator& MessageView::FileIterator::operator++() {
  at_ += 4 + readU32(at_);
  --remaining_;
  return *this;
}

std::int64_t MessageView::IntIterator::operator*() const {
  return static_cast<std::int64_t>(readU64(at_));
}

Result<MessageView> MessageView::parse(std::string_view payload) {
  Reader r(payload);
  MessageView v;
  v.payload_ = payload;
  std::uint16_t type = 0;
  std::uint32_t code = 0;
  std::uint64_t intArg = 0;
  std::uint64_t intArg2 = 0;
  std::uint32_t nFiles = 0;
  if (!r.getU16(type) || !r.getU64(v.requestId_) || !r.getU32(code) ||
      !r.getU64(intArg) || !r.getU64(intArg2) || !r.getU16(v.hops_) ||
      !r.getStrView(v.context_) || !r.getStrView(v.text_) ||
      !r.getU32(nFiles)) {
    return errInvalidArgument("msg: truncated header");
  }
  v.type_ = static_cast<MsgType>(type);
  v.code_ = static_cast<std::int32_t>(code);
  v.intArg_ = static_cast<std::int64_t>(intArg);
  v.intArg2_ = static_cast<std::int64_t>(intArg2);
  // A hostile/corrupted count must not drive a huge reserve() downstream:
  // every entry needs at least its 4-byte length prefix, so bound by what
  // the buffer can actually hold.
  if (nFiles > r.remaining() / 4) {
    return errInvalidArgument("msg: file count exceeds buffer");
  }
  const std::size_t filesAt = r.pos();
  for (std::uint32_t i = 0; i < nFiles; ++i) {
    if (!r.skipStr()) return errInvalidArgument("msg: truncated file list");
  }
  v.filesRegion_ = payload.substr(filesAt, r.pos() - filesAt);
  v.nFiles_ = nFiles;
  std::uint32_t nInts = 0;
  if (!r.getU32(nInts)) return errInvalidArgument("msg: truncated int list");
  // Same hostile-count bound as the file list: every entry takes 8 bytes.
  if (nInts > r.remaining() / 8) {
    return errInvalidArgument("msg: int count exceeds buffer");
  }
  if (r.remaining() < 8u * nInts) {
    return errInvalidArgument("msg: truncated int list");
  }
  v.intsRegion_ = payload.substr(r.pos(), 8u * nInts);
  v.nInts_ = nInts;
  r.advance(8u * nInts);
  if (!r.done()) return errInvalidArgument("msg: trailing bytes");
  return v;
}

Message MessageView::toMessage() const {
  Message m;
  m.type = type_;
  m.requestId = requestId_;
  m.code = code_;
  m.intArg = intArg_;
  m.intArg2 = intArg2_;
  m.hops = hops_;
  m.context.assign(context_);
  m.text.assign(text_);
  m.files.reserve(nFiles_);
  for (auto it = filesBegin(); it != filesEnd(); ++it) {
    m.files.emplace_back(*it);
  }
  m.ints.reserve(nInts_);
  for (auto it = intsBegin(); it != intsEnd(); ++it) m.ints.push_back(*it);
  return m;
}

// --------------------------------------------------------------------- codec

RefOf::RefOf(const Message& m) {
  std::span<std::string_view> files;
  if (m.files.size() <= kInlineFiles) {
    files = std::span(inline_.data(), m.files.size());
  } else {
    spilled_.resize(m.files.size());
    files = spilled_;
  }
  std::copy(m.files.begin(), m.files.end(), files.begin());
  ref_.type = m.type;
  ref_.requestId = m.requestId;
  ref_.context = m.context;
  ref_.files = files;
  ref_.ints = m.ints;
  ref_.code = m.code;
  ref_.intArg = m.intArg;
  ref_.intArg2 = m.intArg2;
  ref_.hops = m.hops;
  ref_.text = m.text;
}

void encodeInto(const MessageRef& m, WireBuffer& out) {
  out.beginFrame();
  encodePayloadImpl(m, out);
  out.endFrame();
}

/// Mirrors encodePayloadImpl field for field; the two are kept adjacent so
/// a codec change cannot update one without the other.
std::size_t encodedSize(const MessageRef& m) {
  std::size_t n = 2 + 8 + 4 + 8 + 8 + 2;  // type..hops fixed header
  n += 4 + m.context.size();
  n += 4 + m.text.size();
  n += 4;
  for (const auto f : m.files) n += 4 + f.size();
  n += 4 + 8 * m.ints.size();
  return n;
}

void encodeToBuffer(const MessageRef& m, char* dst) {
  FixedSink sink{dst};
  encodePayloadImpl(m, sink);
}

MessageRef copyToArena(const MessageView& v, Arena& arena) {
  MessageRef m;
  m.type = v.type();
  m.requestId = v.requestId();
  m.code = v.code();
  m.intArg = v.intArg();
  m.intArg2 = v.intArg2();
  m.hops = v.hops();
  m.context = arena.copyString(v.context());
  m.text = arena.copyString(v.text());
  auto files = arena.allocSpan<std::string_view>(v.fileCount());
  std::size_t i = 0;
  for (auto it = v.filesBegin(); it != v.filesEnd(); ++it) {
    files[i++] = arena.copyString(*it);
  }
  m.files = files;
  auto ints = arena.allocSpan<std::int64_t>(v.intCount());
  i = 0;
  for (auto it = v.intsBegin(); it != v.intsEnd(); ++it) ints[i++] = *it;
  m.ints = ints;
  return m;
}

std::string encode(const Message& m) {
  WireBuffer buf;
  encodeInto(RefOf(m).ref(), buf);
  return std::string(buf.payload());
}

Result<Message> decode(std::string_view data) {
  auto view = MessageView::parse(data);
  if (!view) return view.status();
  return view->toMessage();
}

std::string frame(std::string_view payload) {
  std::string out;
  out.reserve(payload.size() + 4);
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((len >> (8 * i)) & 0xFF));
  }
  out.append(payload);
  return out;
}

}  // namespace simfs::msg

//===- support/OutStream.h - Lightweight output streams --------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A raw_ostream-style output abstraction so library code never includes
/// <iostream> (which injects static constructors). Two concrete sinks are
/// provided: an in-memory string stream and a FILE*-backed stream. The
/// whole-file reader the tools load programs, graphs and manifests with
/// lives here too, and so does the FNV-1a hashing stream that binds run
/// manifests and Gcost dumps to their bytes.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_SUPPORT_OUTSTREAM_H
#define LUD_SUPPORT_OUTSTREAM_H

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace lud {

/// Abstract byte sink with formatting operators for the types the library
/// prints. Subclasses implement writeBytes.
class OutStream {
public:
  virtual ~OutStream();

  OutStream &operator<<(std::string_view Str) {
    writeBytes(Str.data(), Str.size());
    return *this;
  }
  OutStream &operator<<(const char *Str) {
    return *this << std::string_view(Str);
  }
  OutStream &operator<<(const std::string &Str) {
    return *this << std::string_view(Str);
  }
  OutStream &operator<<(char C) {
    writeBytes(&C, 1);
    return *this;
  }
  OutStream &operator<<(bool B) { return *this << (B ? "true" : "false"); }
  OutStream &operator<<(int64_t N);
  OutStream &operator<<(uint64_t N);
  OutStream &operator<<(int32_t N) { return *this << int64_t(N); }
  OutStream &operator<<(uint32_t N) { return *this << uint64_t(N); }
  OutStream &operator<<(double D);

  /// Writes \p D with \p Digits digits after the decimal point.
  OutStream &printFixed(double D, unsigned Digits);

  /// Writes \p Str left-padded with spaces to at least \p Width columns.
  OutStream &padded(std::string_view Str, unsigned Width);

private:
  virtual void writeBytes(const char *Data, size_t Size) = 0;
};

/// OutStream that appends to an owned std::string.
class StringOutStream : public OutStream {
public:
  const std::string &str() const { return Buffer; }
  void clear() { Buffer.clear(); }

private:
  void writeBytes(const char *Data, size_t Size) override {
    Buffer.append(Data, Size);
  }

  std::string Buffer;
};

/// OutStream over a borrowed FILE*. Does not close the file.
class FileOutStream : public OutStream {
public:
  explicit FileOutStream(std::FILE *F) : File(F) {}

private:
  void writeBytes(const char *Data, size_t Size) override {
    std::fwrite(Data, 1, Size, File);
  }

  std::FILE *File;
};

/// OutStream that hashes every byte written to it with 64-bit FNV-1a and
/// passes the bytes on to \p Next when one is given. Hashing a large module
/// or graph this way never materializes its text.
class HashOutStream : public OutStream {
public:
  explicit HashOutStream(OutStream *Next = nullptr) : Next(Next) {}
  uint64_t hash() const { return Hash; }

private:
  void writeBytes(const char *Data, size_t Size) override {
    for (size_t I = 0; I != Size; ++I) {
      Hash ^= uint8_t(Data[I]);
      Hash *= 0x100000001B3ULL;
    }
    if (Next)
      *Next << std::string_view(Data, Size);
  }

  OutStream *Next;
  uint64_t Hash = 0xCBF29CE484222325ULL;
};

/// \p V as the 16 lowercase hex digits that manifests and Gcost dumps
/// write their hashes in.
std::string hashHex(uint64_t V);

/// Returns a stream writing to stdout. Safe to call from tools and tests.
OutStream &outs();

/// Returns a stream writing to stderr.
OutStream &errs();

/// Appends the contents of the file at \p Path to \p Out. Returns false,
/// with errno set, when the file cannot be opened.
bool readFileBytes(const std::string &Path, std::string &Out);

} // namespace lud

#endif // LUD_SUPPORT_OUTSTREAM_H

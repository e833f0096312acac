//===- support/OutStream.cpp - Lightweight output streams ----------------===//

#include "support/OutStream.h"

#include <cerrno>
#include <charconv>
#include <cstring>
#include <sys/stat.h>

using namespace lud;

OutStream::~OutStream() = default;

OutStream &OutStream::operator<<(int64_t N) {
  char Buf[32];
  char *End = std::to_chars(Buf, Buf + sizeof(Buf), N).ptr;
  writeBytes(Buf, End - Buf);
  return *this;
}

OutStream &OutStream::operator<<(uint64_t N) {
  char Buf[32];
  char *End = std::to_chars(Buf, Buf + sizeof(Buf), N).ptr;
  writeBytes(Buf, End - Buf);
  return *this;
}

OutStream &OutStream::operator<<(double D) {
  char Buf[64];
  int Len = std::snprintf(Buf, sizeof(Buf), "%g", D);
  writeBytes(Buf, Len);
  return *this;
}

OutStream &OutStream::printFixed(double D, unsigned Digits) {
  char Buf[64];
  int Len = std::snprintf(Buf, sizeof(Buf), "%.*f", int(Digits), D);
  writeBytes(Buf, Len);
  return *this;
}

OutStream &OutStream::padded(std::string_view Str, unsigned Width) {
  for (size_t I = Str.size(); I < Width; ++I)
    *this << ' ';
  return *this << Str;
}

OutStream &lud::outs() {
  static FileOutStream Stream(stdout);
  return Stream;
}

OutStream &lud::errs() {
  static FileOutStream Stream(stderr);
  return Stream;
}

std::string lud::hashHex(uint64_t V) {
  std::string Out(16, '0');
  for (int I = 15; I >= 0; --I, V >>= 4)
    Out[I] = "0123456789abcdef"[V & 15];
  return Out;
}

bool lud::readFileBytes(const std::string &Path, std::string &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  // Size the buffer once from the file's length, one byte over so a whole
  // file ends in a short read. Pipes and files that grow go on in chunks.
  struct stat St {};
  size_t Want = fstat(fileno(F), &St) == 0 && St.st_size > 0
                    ? size_t(St.st_size) + 1
                    : 65536;
  size_t Len = Out.size();
  while (true) {
    Out.resize(Len + Want);
    size_t N = std::fread(Out.data() + Len, 1, Want, F);
    Len += N;
    if (N < Want)
      break;
    Want = 65536;
  }
  Out.resize(Len);
  // A path that opens but cannot be read (a directory) fails here, not as
  // an empty file.
  int Err = std::ferror(F) ? (errno ? errno : EIO) : 0;
  std::fclose(F);
  errno = Err;
  return Err == 0;
}

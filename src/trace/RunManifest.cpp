//===- trace/RunManifest.cpp - lud.run.v1 run manifests --------------------===//

#include "trace/RunManifest.h"

#include "ir/Printer.h"
#include "support/OutStream.h"

#include <charconv>
#include <limits>

using namespace lud;
using namespace lud::trace;

namespace {

/// Hashes the bytes written to it instead of storing them, so hashing a
/// large module never materializes its text.
class HashOutStream : public OutStream {
public:
  uint64_t hash() const { return Hash; }

private:
  void writeBytes(const char *Data, size_t Size) override {
    for (size_t I = 0; I != Size; ++I) {
      Hash ^= uint8_t(Data[I]);
      Hash *= 0x100000001B3ULL;
    }
  }

  uint64_t Hash = 0xCBF29CE484222325ULL;
};

/// Parses all of \p S as a number of type T in \p Base.
template <typename T>
bool parseNumber(std::string_view S, T &V, int Base = 10) {
  if (S.empty() || S[0] == '+')
    return false;
  auto [Ptr, Ec] = std::from_chars(S.data(), S.data() + S.size(), V, Base);
  return Ec == std::errc() && Ptr == S.data() + S.size();
}

/// \p W for a diagnostic, cut short: a manifest is outside input, and one
/// garbage line must not turn into a megabyte error message.
std::string shown(std::string_view W) {
  return W.size() > 40 ? std::string(W.substr(0, 40)) + "..." : std::string(W);
}

/// Cursor over the space-separated `key=value` fields of one record.
class FieldReader {
public:
  FieldReader(std::string_view Line, std::string &Err)
      : Rest(Line), Err(Err) {}

  /// Consumes the next word, which must be exactly \p Word.
  bool word(std::string_view Word) {
    std::string_view W = next();
    if (W == Word)
      return true;
    return fail("expected '" + std::string(Word) + "', got '" + shown(W) +
                "'");
  }

  /// Consumes the next field, which must be `Key=<value>`.
  bool field(std::string_view Key, std::string_view &Value) {
    std::string_view W = next();
    if (W.size() <= Key.size() || W.substr(0, Key.size()) != Key ||
        W[Key.size()] != '=')
      return fail("expected field '" + std::string(Key) + "=', got '" +
                  shown(W) + "'");
    Value = W.substr(Key.size() + 1);
    if (Value.empty() && Key != "input")
      return fail("field '" + std::string(Key) + "' is empty");
    return true;
  }

  template <typename T> bool number(std::string_view Key, T &V) {
    std::string_view S;
    if (!field(Key, S))
      return false;
    if (!parseNumber(S, V))
      return fail("field '" + std::string(Key) +
                  "' wants an unsigned integer up to " +
                  std::to_string(std::numeric_limits<T>::max()) + ", got '" +
                  shown(S) + "'");
    return true;
  }

  bool hash(std::string_view Key, uint64_t &V) {
    std::string_view S;
    if (!field(Key, S))
      return false;
    if (S.size() != 16 || !parseNumber(S, V, 16))
      return fail("field '" + std::string(Key) +
                  "' wants 16 hex digits, got '" + shown(S) + "'");
    return true;
  }

  bool end() {
    if (Rest.empty())
      return true;
    return fail("trailing text '" + shown(Rest) + "'");
  }

  bool fail(const std::string &Msg) {
    Err = Msg;
    return false;
  }

private:
  std::string_view next() {
    size_t Sp = Rest.find(' ');
    std::string_view W = Rest.substr(0, Sp);
    Rest = Sp == std::string_view::npos ? std::string_view()
                                        : Rest.substr(Sp + 1);
    return W;
  }

  std::string_view Rest;
  std::string &Err;
};

} // namespace

uint64_t lud::trace::moduleHash(const Module &M) {
  HashOutStream OS;
  printModule(M, OS);
  return OS.hash();
}

std::string lud::trace::hashHex(uint64_t V) {
  std::string Out(16, '0');
  for (int I = 15; I >= 0; --I, V >>= 4)
    Out[I] = "0123456789abcdef"[V & 15];
  return Out;
}

void lud::trace::writeRecord(const RunRecord &R, OutStream &OS) {
  OS << kManifestMagic << " module=" << hashHex(R.ModuleHash)
     << " max_instructions=" << R.MaxInstructions
     << " max_frames=" << R.MaxFrames << " input=";
  for (size_t I = 0; I != R.Input.size(); ++I)
    OS << (I ? "," : "") << R.Input[I];
  OS << " status=" << runStatusName(R.Status)
     << " instructions=" << R.Instructions
     << " sink=" << hashHex(R.SinkHash) << " events=" << R.Events << "\n";
}

bool lud::trace::parseRecord(std::string_view Line, RunRecord &R,
                             std::string &Err) {
  FieldReader F(Line, Err);
  std::string_view Input, Status;
  if (!F.word(kManifestMagic) || !F.hash("module", R.ModuleHash) ||
      !F.number("max_instructions", R.MaxInstructions) ||
      !F.number("max_frames", R.MaxFrames) || !F.field("input", Input))
    return false;
  R.Input.clear();
  while (!Input.empty()) {
    size_t Comma = Input.find(',');
    std::string_view Item = Input.substr(0, Comma);
    int64_t V = 0;
    if (!parseNumber(Item, V))
      return F.fail("field 'input' wants comma-separated 64-bit integers, "
                    "got '" + shown(Item) + "'");
    R.Input.push_back(V);
    if (Comma == std::string_view::npos)
      break;
    Input.remove_prefix(Comma + 1);
    if (Input.empty())
      return F.fail("field 'input' ends with a comma");
  }
  if (!F.field("status", Status))
    return false;
  if (Status == "finished")
    R.Status = RunStatus::Finished;
  else if (Status == "trapped")
    R.Status = RunStatus::Trapped;
  else if (Status == "budget-exceeded")
    R.Status = RunStatus::BudgetExceeded;
  else
    return F.fail("unknown status '" + shown(Status) +
                  "' (valid: finished, trapped, budget-exceeded)");
  return F.number("instructions", R.Instructions) &&
         F.hash("sink", R.SinkHash) && F.number("events", R.Events) &&
         F.end();
}

std::string lud::trace::diffRecord(const RunRecord &Rec, const RunResult &R,
                                   uint64_t Events) {
  if (R.Status != Rec.Status)
    return std::string("status ") + runStatusName(R.Status) + ", recorded " +
           runStatusName(Rec.Status);
  if (R.ExecutedInstrs != Rec.Instructions)
    return "instructions " + std::to_string(R.ExecutedInstrs) +
           ", recorded " + std::to_string(Rec.Instructions);
  if (R.SinkHash != Rec.SinkHash)
    return "sink " + hashHex(R.SinkHash) + ", recorded " +
           hashHex(Rec.SinkHash);
  if (Events != Rec.Events)
    return "events " + std::to_string(Events) + ", recorded " +
           std::to_string(Rec.Events);
  return "";
}

std::vector<std::string_view>
lud::trace::splitRecords(std::string_view Manifest) {
  std::vector<std::string_view> Lines;
  while (!Manifest.empty()) {
    size_t Eol = Manifest.find('\n');
    Lines.push_back(Manifest.substr(0, Eol));
    if (Eol == std::string_view::npos)
      break;
    Manifest.remove_prefix(Eol + 1);
  }
  return Lines;
}

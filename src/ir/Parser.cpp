//===- ir/Parser.cpp - Textual IR parser -----------------------------------===//

#include "ir/Parser.h"

#include "ir/Module.h"
#include "ir/Verifier.h"

#include <array>
#include <cassert>
#include <charconv>
#include <cstdlib>
#include <cstring>

using namespace lud;

namespace {

enum class Tok : uint8_t {
  Ident,
  IntLit,
  FloatLit,
  LBrace,
  RBrace,
  LParen,
  RParen,
  LBracket,
  RBracket,
  Colon,
  ColonColon,
  Semi,
  Comma,
  Eq,
  EqEq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  At,
  Dot,
  End,
};

struct Token {
  Tok Kind = Tok::End;
  std::string_view Text;
  unsigned Line = 0;
};

/// Character classes, one table lookup per byte. Only ASCII letters, digits
/// and '_' make identifiers and only the C locale's blanks are whitespace;
/// every other byte outside the punctuation below is an error. kPlain marks
/// the bytes that are part of some token wherever they appear and are not
/// braces, newlines or '#'; kSkippable adds the newline.
enum : uint8_t {
  kIdentStart = 1,
  kDigit = 2,
  kBlank = 4,
  kPlain = 8,
  kSkippable = 16
};
constexpr uint8_t kIdentChar = kIdentStart | kDigit;

constexpr std::array<uint8_t, 256> makeCharClasses() {
  std::array<uint8_t, 256> T{};
  for (int C = 'a'; C <= 'z'; ++C)
    T[C] = kIdentStart | kPlain;
  for (int C = 'A'; C <= 'Z'; ++C)
    T[C] = kIdentStart | kPlain;
  T['_'] = kIdentStart | kPlain;
  for (int C = '0'; C <= '9'; ++C)
    T[C] = kDigit | kPlain;
  for (char C : {' ', '\t', '\v', '\f', '\r'})
    T[uint8_t(C)] = kBlank | kPlain;
  for (char C : {'(', ')', '[', ']', ';', ',', '@', '.', ':', '=', '<', '>'})
    T[uint8_t(C)] = kPlain;
  for (uint8_t &Class : T)
    if (Class & kPlain)
      Class |= kSkippable;
  T['\n'] = kSkippable;
  return T;
}
constexpr std::array<uint8_t, 256> kCharClass = makeCharClasses();

bool is(char C, uint8_t Class) { return kCharClass[uint8_t(C)] & Class; }

/// Packs an identifier of up to 8 bytes into an integer, so keyword and
/// opcode dispatch is one switch. Longer identifiers pack to 0, which no
/// keyword does.
constexpr uint64_t pack(std::string_view S) {
  if (S.size() > 8)
    return 0;
  uint64_t V = 0;
  for (size_t I = 0; I != S.size(); ++I)
    V |= uint64_t(uint8_t(S[I])) << (8 * I);
  return V;
}

/// \p S for a diagnostic, cut short so a huge token cannot turn into a
/// huge message.
std::string shown(std::string_view S) {
  return S.size() > 40 ? std::string(S.substr(0, 40)) + "..."
                       : std::string(S);
}

/// Parses all of \p S as a decimal T. Returns false when \p S is not all
/// digits (after a '-' for signed T) or the value does not fit in T.
template <typename T> bool parseInt(std::string_view S, T &V) {
  auto [Ptr, Ec] = std::from_chars(S.data(), S.data() + S.size(), V);
  return Ec == std::errc() && Ptr == S.data() + S.size();
}

/// Hands out one token at a time, straight from the text. The parser seeks
/// it back to each body for the second pass. Unexpected characters are
/// collected in their own list and skipped.
class Lexer {
public:
  /// Where the next token starts.
  struct Position {
    const char *Pos;
    unsigned Line;
  };

  explicit Lexer(std::string_view Text)
      : Pos(Text.data()), End(Text.data() + Text.size()) {}

  /// Lexes the next token into \p T. Filling the caller's token in place,
  /// rather than returning one, keeps every field's load the size of its
  /// store, which the CPU forwards without a stall.
  void next(Token &T);

  /// Moves past the '}' that closes a body whose '{' was the last token,
  /// scanning bytes instead of making tokens. Braces and newlines are never
  /// part of another token and '#' always starts a comment, so counting
  /// them is exact. Returns false, without moving, when the body holds a
  /// byte only full lexing can judge (a '+', a '-' before no digit, a '!'
  /// before no '=', or a byte outside the language).
  bool skipBody();

  Position position() const { return {Pos, Line}; }
  void seek(Position P) {
    Pos = P.Pos;
    Line = P.Line;
  }
  const std::vector<std::string> &errors() const { return Errors; }

private:
  [[gnu::cold, gnu::noinline]] void badCharacter(char C, unsigned AtLine);

  const char *Pos;
  const char *End;
  unsigned Line = 1;
  std::vector<std::string> Errors;
};

void Lexer::next(Token &T) {
  // Work on locals so the scan loops keep them in registers.
  const char *P = Pos;
  unsigned L = Line;
  auto Finish = [&](Tok K, const char *Start) {
    Pos = P;
    Line = L;
    T.Kind = K;
    T.Text = std::string_view(Start, P - Start);
    T.Line = L;
  };
  while (true) {
    // Skip whitespace and comments.
    while (P != End) {
      char C = *P;
      if (C == ' ') {
        ++P;
      } else if (C == '\n') {
        ++L;
        ++P;
      } else if (is(C, kBlank)) {
        ++P;
      } else if (C == '#') {
        const void *NL = std::memchr(P, '\n', End - P);
        P = NL ? static_cast<const char *>(NL) : End;
      } else {
        break;
      }
    }
    if (P == End)
      return Finish(Tok::End, P);

    const char *Start = P;
    char C = *P++;
    if (is(C, kIdentStart)) {
      while (P != End && is(*P, kIdentChar))
        ++P;
      return Finish(Tok::Ident, Start);
    }
    if (is(C, kDigit) || (C == '-' && P != End && is(*P, kDigit))) {
      bool IsFloat = false;
      while (P != End) {
        char D = *P;
        if (is(D, kDigit)) {
          ++P;
        } else if (D == '.' && P + 1 != End && is(P[1], kDigit)) {
          IsFloat = true;
          ++P;
        } else if (D == 'e' || D == 'E') {
          IsFloat = true;
          ++P;
          if (P != End && (*P == '+' || *P == '-'))
            ++P;
        } else {
          break;
        }
      }
      return Finish(IsFloat ? Tok::FloatLit : Tok::IntLit, Start);
    }

    // One- and two-character punctuation.
    auto Either = [&](char Second, Tok Two, Tok One) {
      bool Long = P != End && *P == Second;
      P += Long;
      Finish(Long ? Two : One, Start);
    };
    switch (C) {
    case '{':
      return Finish(Tok::LBrace, Start);
    case '}':
      return Finish(Tok::RBrace, Start);
    case '(':
      return Finish(Tok::LParen, Start);
    case ')':
      return Finish(Tok::RParen, Start);
    case '[':
      return Finish(Tok::LBracket, Start);
    case ']':
      return Finish(Tok::RBracket, Start);
    case ';':
      return Finish(Tok::Semi, Start);
    case ',':
      return Finish(Tok::Comma, Start);
    case '@':
      return Finish(Tok::At, Start);
    case '.':
      return Finish(Tok::Dot, Start);
    case ':':
      return Either(':', Tok::ColonColon, Tok::Colon);
    case '=':
      return Either('=', Tok::EqEq, Tok::Eq);
    case '<':
      return Either('=', Tok::Le, Tok::Lt);
    case '>':
      return Either('=', Tok::Ge, Tok::Gt);
    case '!':
      if (P != End && *P == '=') {
        ++P;
        return Finish(Tok::Ne, Start);
      }
      break;
    default:
      break;
    }
    badCharacter(C, L);
  }
}

void Lexer::badCharacter(char C, unsigned AtLine) {
  Errors.push_back("line " + std::to_string(AtLine) +
                   ": unexpected character '" + std::string(1, C) + "'");
}

/// Number of '\n' bytes in the eight bytes of \p W.
unsigned newlinesIn(uint64_t W) {
  uint64_t X = W ^ 0x0A0A0A0A0A0A0A0AULL; // A newline byte becomes zero.
  constexpr uint64_t Low7 = 0x7F7F7F7F7F7F7F7FULL;
  uint64_t Zero = ~(((X & Low7) + Low7) | X | Low7); // 0x80 per zero byte.
  return unsigned(((Zero >> 7) * 0x0101010101010101ULL) >> 56);
}

bool Lexer::skipBody() {
  unsigned Depth = 1, L = Line;
  for (const char *P = Pos; P != End;) {
    // Eight bytes at a time while all are plain or newlines.
    while (End - P >= 8 &&
           (kCharClass[uint8_t(P[0])] & kCharClass[uint8_t(P[1])] &
            kCharClass[uint8_t(P[2])] & kCharClass[uint8_t(P[3])] &
            kCharClass[uint8_t(P[4])] & kCharClass[uint8_t(P[5])] &
            kCharClass[uint8_t(P[6])] & kCharClass[uint8_t(P[7])] &
            kSkippable)) {
      uint64_t W;
      std::memcpy(&W, P, 8);
      L += newlinesIn(W);
      P += 8;
    }
    if (P == End)
      break;
    char C = *P++;
    if (is(C, kPlain))
      continue;
    switch (C) {
    case '\n':
      ++L;
      break;
    case '{':
      ++Depth;
      break;
    case '}':
      if (--Depth == 0) {
        Pos = P;
        Line = L;
        return true;
      }
      break;
    case '#': {
      const void *NL = std::memchr(P, '\n', End - P);
      P = NL ? static_cast<const char *>(NL) : End;
      break;
    }
    case '-':
      if (P == End || !is(*P, kDigit))
        return false;
      break;
    case '!':
      if (P == End || *P != '=')
        return false;
      break;
    default:
      return false;
    }
  }
  // An unclosed body runs to the end of the text.
  Pos = End;
  Line = L;
  return true;
}

/// The packed printed names of an operator enum's values 0..N-1, so the
/// parser reads exactly the spellings the printer writes.
template <typename OpT, size_t N>
std::array<uint64_t, N> packedNames(const char *(*Name)(OpT)) {
  std::array<uint64_t, N> Keys{};
  for (size_t I = 0; I != N; ++I)
    Keys[I] = pack(Name(OpT(I)));
  return Keys;
}

template <typename OpT, size_t N>
bool lookupOp(const std::array<uint64_t, N> &Keys, uint64_t Key, OpT &Out) {
  for (size_t I = 0; I != N; ++I) {
    if (Keys[I] == Key) {
      Out = OpT(I);
      return true;
    }
  }
  return false;
}

/// Highest block label: a function holds at most 65535 blocks, like the
/// registers a frame can name.
constexpr uint32_t kMaxBlockLabel = 0xFFFE;

/// Recursive-descent parser pulling tokens from the lexer. Pass 1 registers
/// classes, globals and function signatures, so bodies can reference
/// declarations that appear later in the file, and remembers where each
/// body starts; pass 2 seeks back to each body to parse fields, global
/// types and statements.
class Parser {
public:
  Parser(std::string_view Text, std::vector<std::string> &Errors)
      : Lex(Text), Errors(Errors) {}

  std::unique_ptr<Module> run() {
    M = std::make_unique<Module>();
    advance();
    declPass();
    // Unexpected characters anywhere in the file are reported alone.
    while (!at(Tok::End))
      advance();
    if (!Lex.errors().empty()) {
      Errors.insert(Errors.end(), Lex.errors().begin(), Lex.errors().end());
      return nullptr;
    }
    if (failed())
      return reportDiags();
    bodyPass();
    if (failed())
      return reportDiags();
    M->finalize();
    if (!verifyModule(*M, Errors))
      return nullptr;
    return std::move(M);
  }

private:
  /// Where a pass-2 item resumes: the current token and the lexer after it.
  struct Mark {
    Token Cur;
    Lexer::Position After;
  };
  enum class ItemKind : uint8_t { Class, Global, Func };
  struct Item {
    ItemKind Kind;
    uint32_t Id;
    Mark At;
  };

  //===--------------------------------------------------------------------===
  // Token plumbing.
  //===--------------------------------------------------------------------===

  void advance() {
    if (HasNext) {
      Cur = Next;
      HasNext = false;
    } else {
      Lex.next(Cur);
    }
  }
  /// The token after the current one.
  const Token &peekNext() {
    if (!HasNext) {
      Lex.next(Next);
      HasNext = true;
    }
    return Next;
  }
  /// Consumes the current token (End stays put) and returns its text.
  std::string_view get() {
    std::string_view Text = Cur.Text;
    if (Cur.Kind != Tok::End)
      advance();
    return Text;
  }
  bool at(Tok K) const { return Cur.Kind == K; }
  bool atIdent(uint64_t Key) const {
    return at(Tok::Ident) && pack(Cur.Text) == Key;
  }
  bool accept(Tok K) {
    if (!at(K))
      return false;
    get();
    return true;
  }
  bool acceptIdent(uint64_t Key) {
    if (!atIdent(Key))
      return false;
    get();
    return true;
  }
  Mark mark() const {
    assert(!HasNext && "marks are taken between statements");
    return {Cur, Lex.position()};
  }
  void resume(const Mark &At) {
    Cur = At.Cur;
    HasNext = false;
    Lex.seek(At.After);
  }

  bool failed() const { return !Diags.empty(); }
  std::unique_ptr<Module> reportDiags() {
    Errors.insert(Errors.end(), Diags.begin(), Diags.end());
    return nullptr;
  }
  void errorAt(unsigned Line, const std::string &Msg) {
    Diags.push_back("line " + std::to_string(Line) + ": " + Msg);
  }
  void error(const std::string &Msg) { errorAt(Cur.Line, Msg); }
  bool expect(Tok K, const char *What) {
    if (accept(K))
      return true;
    error(std::string("expected ") + What);
    return false;
  }
  /// Skips the brace-delimited body starting at the current '{'. A body
  /// holding a byte the lexer's byte scan cannot judge is skipped token by
  /// token, so the lexer reports any bad character in it.
  void skipBody() {
    assert(at(Tok::LBrace) && !HasNext);
    bool Skipped = Lex.skipBody();
    advance();
    if (Skipped)
      return;
    unsigned Depth = 1;
    while (Depth && !at(Tok::End)) {
      if (at(Tok::LBrace))
        ++Depth;
      if (at(Tok::RBrace))
        --Depth;
      advance();
    }
  }

  //===--------------------------------------------------------------------===
  // Small parsers shared by both passes.
  //===--------------------------------------------------------------------===

  /// Parses a dotted identifier like "A.getVal" or "lud.input". The result
  /// points into the text, or into NameBuf when it spans several tokens.
  bool parseDottedName(std::string_view &Out) {
    if (!at(Tok::Ident)) {
      error("expected identifier");
      return false;
    }
    Out = get();
    if (!at(Tok::Dot))
      return true;
    NameBuf.assign(Out);
    while (accept(Tok::Dot)) {
      if (!at(Tok::Ident)) {
        error("expected identifier after '.'");
        return false;
      }
      NameBuf += '.';
      NameBuf += get();
    }
    Out = NameBuf;
    return true;
  }

  static bool isRegName(std::string_view S) {
    return S.size() > 1 && S[0] == 'r' && is(S[1], kDigit);
  }

  /// Parses "rN" into a register index.
  bool parseReg(Reg &Out) {
    std::string_view T = Cur.Text;
    if (!at(Tok::Ident) || T.size() < 2 || T[0] != 'r') {
      error("expected register (rN)");
      return false;
    }
    uint32_t V = 0;
    for (char C : T.substr(1)) {
      if (!is(C, kDigit)) {
        error("expected register (rN)");
        return false;
      }
      V = V < kNoReg ? V * 10 + (C - '0') : V;
    }
    if (V >= kNoReg) {
      error("register index too large");
      return false;
    }
    get();
    Out = Reg(V);
    return true;
  }

  /// Parses "bbN" into a block index.
  bool parseBlockRef(uint32_t &Out) {
    std::string_view T = Cur.Text;
    if (!at(Tok::Ident) || T.size() < 3 || T[0] != 'b' || T[1] != 'b') {
      error("expected block label (bbN)");
      return false;
    }
    std::string_view Digits = T.substr(2);
    auto [Ptr, Ec] =
        std::from_chars(Digits.data(), Digits.data() + Digits.size(), Out);
    if (Ptr != Digits.data() + Digits.size()) {
      error("malformed block label '" + shown(T) + "' (expected bbN)");
      return false;
    }
    if (Ec != std::errc() || Out > kMaxBlockLabel) {
      error("block label '" + shown(T) + "' out of range (at most bb" +
            std::to_string(kMaxBlockLabel) + ")");
      return false;
    }
    get();
    return true;
  }

  bool parseType(Type &Out) {
    if (!at(Tok::Ident)) {
      error("expected type");
      return false;
    }
    std::string_view Name = get();
    TypeKind Base;
    switch (pack(Name)) {
    case pack("int"):
      Base = TypeKind::Int;
      break;
    case pack("float"):
      Base = TypeKind::Float;
      break;
    case pack("ref"):
      Base = TypeKind::Ref;
      break;
    default: {
      ClassId C = M->findClass(Name);
      if (C == kNoClass) {
        error("unknown type '" + std::string(Name) + "'");
        return false;
      }
      Out = Type::makeRef(C);
      if (accept(Tok::LBracket)) {
        expect(Tok::RBracket, "']'");
        Out = Type::makeArray(TypeKind::Ref, C);
      }
      return true;
    }
    }
    if (accept(Tok::LBracket)) {
      expect(Tok::RBracket, "']'");
      Out = Type::makeArray(Base);
      return true;
    }
    switch (Base) {
    case TypeKind::Int:
      Out = Type::makeInt();
      break;
    case TypeKind::Float:
      Out = Type::makeFloat();
      break;
    default:
      Out = Type::makeRef();
      break;
    }
    return true;
  }

  //===--------------------------------------------------------------------===
  // Pass 1: declarations.
  //===--------------------------------------------------------------------===

  void declPass() {
    while (!at(Tok::End)) {
      if (acceptIdent(pack("class"))) {
        declClass();
      } else if (acceptIdent(pack("global"))) {
        declGlobal();
      } else if (atIdent(pack("func")) || atIdent(pack("method"))) {
        declFunc();
      } else {
        error("expected top-level declaration");
        get();
      }
      if (failed() || !Lex.errors().empty())
        return;
    }
  }

  void declClass() {
    if (!at(Tok::Ident)) {
      error("expected class name");
      return;
    }
    std::string_view Name = get();
    ClassId Super = kNoClass;
    if (acceptIdent(pack("extends"))) {
      if (!at(Tok::Ident)) {
        error("expected superclass name");
        return;
      }
      std::string_view SuperName = get();
      Super = M->findClass(SuperName);
      if (Super == kNoClass) {
        error("superclass '" + std::string(SuperName) +
              "' not declared (supers must precede subclasses)");
        return;
      }
    }
    if (M->findClass(Name) != kNoClass) {
      error("duplicate class '" + std::string(Name) + "'");
      return;
    }
    ClassId Id = M->addClass(std::string(Name), Super)->getId();
    if (!at(Tok::LBrace)) {
      error("expected '{'");
      return;
    }
    Items.push_back({ItemKind::Class, Id, mark()});
    skipBody(); // Fields are parsed in pass 2.
  }

  void declGlobal() {
    if (!at(Tok::Ident)) {
      error("expected global name");
      return;
    }
    std::string_view Name = get();
    if (!expect(Tok::Colon, "':'"))
      return;
    // The type may reference classes declared later; record a placeholder
    // and fix it in pass 2.
    Mark TypeAt = mark();
    if (at(Tok::Ident))
      get();
    if (accept(Tok::LBracket))
      expect(Tok::RBracket, "']'");
    if (M->findGlobal(Name) != kNoGlobal) {
      error("duplicate global '" + std::string(Name) + "'");
      return;
    }
    Items.push_back({ItemKind::Global,
                     M->addGlobal(std::string(Name), Type::makeInt()),
                     TypeAt});
  }

  void declFunc() {
    bool IsMethod = get() == "method";
    std::string_view Name;
    if (!parseDottedName(Name))
      return;
    ClassId Owner = kNoClass;
    size_t DotPos = Name.rfind('.');
    if (IsMethod) {
      if (DotPos == std::string_view::npos) {
        error("method name must be Class.name");
        return;
      }
      Owner = M->findClass(Name.substr(0, DotPos));
      if (Owner == kNoClass) {
        error("method on unknown class in '" + std::string(Name) + "'");
        return;
      }
    }
    if (!expect(Tok::LParen, "'('"))
      return;
    unsigned NumParams = 0;
    if (!at(Tok::RParen)) {
      do {
        Reg R;
        if (!parseReg(R))
          return;
        if (R != NumParams) {
          error("parameters must be r0, r1, ... in order");
          return;
        }
        ++NumParams;
      } while (accept(Tok::Comma));
    }
    if (!expect(Tok::RParen, "')'"))
      return;
    unsigned NumRegs = NumParams;
    if (acceptIdent(pack("regs"))) {
      if (!at(Tok::IntLit)) {
        error("expected register count");
        return;
      }
      uint32_t N = 0;
      if (!parseInt(Cur.Text, N) || N > kNoReg) {
        error("register count '" + shown(Cur.Text) +
              "' out of range (at most " + std::to_string(kNoReg) + ")");
        return;
      }
      get();
      NumRegs = N;
    }
    if (M->findFunction(Name) != kNoFunc) {
      error("duplicate function '" + std::string(Name) + "'");
      return;
    }
    Function *F = M->addFunction(std::string(Name), NumParams, NumRegs, Owner);
    if (IsMethod)
      M->getClass(Owner)->addMethod(
          M->internMethodName(Name.substr(DotPos + 1)), F->getId());
    if (!at(Tok::LBrace)) {
      error("expected '{'");
      return;
    }
    Items.push_back({ItemKind::Func, F->getId(), mark()});
    skipBody();
  }

  //===--------------------------------------------------------------------===
  // Pass 2: class fields, global types, function bodies.
  //===--------------------------------------------------------------------===

  void bodyPass() {
    for (const Item &I : Items) {
      resume(I.At);
      switch (I.Kind) {
      case ItemKind::Class:
        bodyClass(M->getClass(I.Id));
        break;
      case ItemKind::Global:
        bodyGlobal(I.Id);
        break;
      case ItemKind::Func:
        bodyFunc(M->getFunction(I.Id));
        break;
      }
      if (failed())
        return;
    }
  }

  void bodyClass(ClassDecl *C) {
    expect(Tok::LBrace, "'{'");
    while (!at(Tok::RBrace) && !at(Tok::End)) {
      if (!at(Tok::Ident)) {
        error("expected field name");
        return;
      }
      std::string_view FieldName = get();
      if (!expect(Tok::Colon, "':'"))
        return;
      Type Ty;
      if (!parseType(Ty))
        return;
      expect(Tok::Semi, "';'");
      C->addField(std::string(FieldName), Ty);
    }
    expect(Tok::RBrace, "'}'");
  }

  void bodyGlobal(GlobalId G) {
    Type Ty;
    if (!parseType(Ty))
      return;
    // Patch the placeholder type recorded in pass 1.
    const_cast<GlobalDecl &>(M->globals()[G]).Ty = Ty;
  }

  void bodyFunc(Function *Fn) {
    F = Fn;
    CurBlock = nullptr;
    Defined.clear();
    Jumps.clear();
    expect(Tok::LBrace, "'{'");
    while (!at(Tok::RBrace) && !at(Tok::End) && !failed())
      parseStatement();
    flushBlock();
    expect(Tok::RBrace, "'}'");
    if (!failed())
      checkJumps();
    F = nullptr;
  }

  /// Block with index \p Id, created on demand, with any lower-numbered
  /// blocks not labeled yet (the verifier reports those left empty).
  BasicBlock *defineBlock(uint32_t Id) {
    while (F->blocks().size() <= Id) {
      F->addBlock();
      Defined.push_back(false);
    }
    Defined[Id] = true;
    return F->getBlock(Id);
  }

  /// Records a jump to \p Target, checked against the labels once the
  /// whole body is parsed.
  void noteJump(uint32_t Target, unsigned Line) {
    if (Target >= Defined.size() || !Defined[Target])
      Jumps.push_back({Target, Line});
  }

  /// Reports each label jumped to but never defined, once, at its first
  /// jump.
  void checkJumps() {
    for (auto [T, Line] : Jumps) {
      if (T < Defined.size() && Defined[T])
        continue;
      errorAt(Line, "jump to undefined label 'bb" + std::to_string(T) + "'");
      // Mark it so later jumps to it stay quiet; the body is done.
      if (Defined.size() <= T)
        Defined.resize(T + 1);
      Defined[T] = true;
    }
  }

  /// Parses a jump target and records the jump.
  bool parseTarget(uint32_t &Out) {
    unsigned Line = Cur.Line;
    if (!parseBlockRef(Out))
      return false;
    noteJump(Out, Line);
    return true;
  }

  void emit(Instruction *I) {
    if (!CurBlock) {
      error("statement before first block label");
      delete I;
      return;
    }
    Pending.push_back(I);
  }

  /// Moves the current block's parsed instructions into it, so each block
  /// grows its instruction list once.
  void flushBlock() {
    if (!CurBlock)
      return;
    CurBlock->reserve(Pending.size());
    for (Instruction *I : Pending)
      CurBlock->append(I);
    Pending.clear();
  }

  bool parseCmpOp(CmpOp &Out) {
    switch (Cur.Kind) {
    case Tok::EqEq:
      Out = CmpOp::Eq;
      break;
    case Tok::Ne:
      Out = CmpOp::Ne;
      break;
    case Tok::Lt:
      Out = CmpOp::Lt;
      break;
    case Tok::Le:
      Out = CmpOp::Le;
      break;
    case Tok::Gt:
      Out = CmpOp::Gt;
      break;
    case Tok::Ge:
      Out = CmpOp::Ge;
      break;
    default:
      error("expected comparison operator");
      return false;
    }
    get();
    return true;
  }

  /// Parses "(rA, rB, ...)" into an exactly sized list.
  bool parseArgs(std::vector<Reg> &Args) {
    if (!expect(Tok::LParen, "'('"))
      return false;
    ArgBuf.clear();
    if (!at(Tok::RParen)) {
      do {
        Reg R;
        if (!parseReg(R))
          return false;
        ArgBuf.push_back(R);
      } while (accept(Tok::Comma));
    }
    Args.assign(ArgBuf.begin(), ArgBuf.end());
    return expect(Tok::RParen, "')'");
  }

  /// Parses "call f(..)" / "vcall m(..)" / "ncall n(..)" after the keyword
  /// \p Kind (packed) has been consumed; \p Dst is kNoReg for statement
  /// position.
  void parseCallTail(uint64_t Kind, Reg Dst) {
    std::string_view Name;
    if (!parseDottedName(Name))
      return;
    std::vector<Reg> Args;
    if (!parseArgs(Args))
      return;
    if (Kind == pack("call")) {
      FuncId Callee = M->findFunction(Name);
      if (Callee == kNoFunc) {
        error("call to unknown function '" + std::string(Name) + "'");
        return;
      }
      emit(CallInst::makeDirect(Dst, Callee, std::move(Args)));
    } else if (Kind == pack("vcall")) {
      if (Args.empty()) {
        error("vcall needs a receiver argument");
        return;
      }
      emit(CallInst::makeVirtual(Dst, M->internMethodName(Name),
                                 std::move(Args)));
    } else {
      emit(new NativeCallInst(Dst, M->internNativeName(Name),
                              std::move(Args)));
    }
  }

  /// Field access suffix after "rBase." — either "Class::field" or a
  /// module-unique "field".
  bool parseFieldSuffix(ClassId &ClassOut, FieldSlot &SlotOut) {
    if (!at(Tok::Ident)) {
      error("expected field or class name after '.'");
      return false;
    }
    std::string_view First = get();
    if (accept(Tok::ColonColon)) {
      ClassId C = M->findClass(First);
      if (C == kNoClass) {
        error("unknown class '" + std::string(First) + "' in field access");
        return false;
      }
      if (!at(Tok::Ident)) {
        error("expected field name after '::'");
        return false;
      }
      std::string_view FieldName = get();
      if (!M->resolveField(C, FieldName, SlotOut)) {
        error("class " + std::string(First) + " has no field '" +
              std::string(FieldName) + "'");
        return false;
      }
      ClassOut = C;
      return true;
    }
    if (!M->resolveFieldUnqualified(First, ClassOut, SlotOut)) {
      error("field '" + std::string(First) +
            "' is unknown or ambiguous; qualify as Class::field");
      return false;
    }
    return true;
  }

  /// Parses "@G" after the '@' into a global id.
  bool parseGlobalRef(GlobalId &Out) {
    if (!at(Tok::Ident)) {
      error("expected global name");
      return false;
    }
    std::string_view Name = get();
    Out = M->findGlobal(Name);
    if (Out == kNoGlobal) {
      error("unknown global '" + std::string(Name) + "'");
      return false;
    }
    return true;
  }

  void parseStatement() {
    if (at(Tok::Ident) && !isRegName(Cur.Text)) {
      std::string_view Head = Cur.Text;
      // Block label?
      if (Head.size() >= 2 && Head[0] == 'b' && Head[1] == 'b' &&
          peekNext().Kind == Tok::Colon) {
        uint32_t Id;
        bool Ok = parseBlockRef(Id);
        get(); // ':' (or the malformed label)
        if (Ok) {
          flushBlock();
          CurBlock = defineBlock(Id);
        }
        return;
      }
      switch (uint64_t Key = pack(Head)) {
      case pack("goto"): {
        get();
        uint32_t T;
        if (parseTarget(T))
          emit(new BrInst(T));
        return;
      }
      case pack("if"): {
        get();
        Reg L, R;
        CmpOp Cmp;
        uint32_t TB, FB;
        if (!parseReg(L) || !parseCmpOp(Cmp) || !parseReg(R))
          return;
        if (!acceptIdent(pack("goto"))) {
          error("expected 'goto'");
          return;
        }
        if (!parseTarget(TB))
          return;
        if (!acceptIdent(pack("else"))) {
          error("expected 'else'");
          return;
        }
        if (!parseTarget(FB))
          return;
        emit(new CondBrInst(Cmp, L, R, TB, FB));
        return;
      }
      case pack("ret"): {
        get();
        Reg S = kNoReg;
        if (at(Tok::Ident) && isRegName(Cur.Text))
          parseReg(S);
        emit(new ReturnInst(S));
        return;
      }
      case pack("call"):
      case pack("vcall"):
      case pack("ncall"):
        get();
        parseCallTail(Key, kNoReg);
        return;
      default:
        break;
      }
    } else if (accept(Tok::At)) { // "@G = rS": static store.
      GlobalId G;
      Reg S;
      if (!parseGlobalRef(G) || !expect(Tok::Eq, "'='") || !parseReg(S))
        return;
      emit(new StoreStaticInst(G, S));
      return;
    }

    // Everything else starts with a register.
    Reg R0;
    if (!parseReg(R0))
      return;

    // "rA[rI] = rS": element store.
    if (accept(Tok::LBracket)) {
      Reg I, S;
      if (!parseReg(I) || !expect(Tok::RBracket, "']'") ||
          !expect(Tok::Eq, "'='") || !parseReg(S))
        return;
      emit(new StoreElemInst(R0, I, S));
      return;
    }

    // "rA.f = rS": field store.
    if (accept(Tok::Dot)) {
      ClassId C;
      FieldSlot Slot;
      if (!parseFieldSuffix(C, Slot))
        return;
      Reg S;
      if (!expect(Tok::Eq, "'='") || !parseReg(S))
        return;
      emit(new StoreFieldInst(R0, C, Slot, S));
      return;
    }

    if (!expect(Tok::Eq, "'='"))
      return;
    parseRhs(R0);
  }

  /// Parses the right-hand side of "rD = ...".
  void parseRhs(Reg Dst) {
    if (accept(Tok::At)) { // rD = @G
      GlobalId G;
      if (parseGlobalRef(G))
        emit(new LoadStaticInst(Dst, G));
      return;
    }

    if (!at(Tok::Ident)) {
      error("expected right-hand side");
      return;
    }
    std::string_view Head = Cur.Text;

    // Register-led RHS: copy, element load, field load.
    if (isRegName(Head)) {
      Reg Src;
      if (!parseReg(Src))
        return;
      if (accept(Tok::LBracket)) { // rD = rB[rI]
        Reg I;
        if (!parseReg(I) || !expect(Tok::RBracket, "']'"))
          return;
        emit(new LoadElemInst(Dst, Src, I));
        return;
      }
      if (accept(Tok::Dot)) { // rD = rB.f
        ClassId C;
        FieldSlot Slot;
        if (!parseFieldSuffix(C, Slot))
          return;
        emit(new LoadFieldInst(Dst, Src, C, Slot));
        return;
      }
      emit(new AssignInst(Dst, Src));
      return;
    }

    get(); // consume Head
    uint64_t Key = pack(Head);
    switch (Key) {
    case pack("iconst"): {
      if (!at(Tok::IntLit)) {
        error("expected integer literal");
        return;
      }
      int64_t V = 0;
      if (!parseInt(Cur.Text, V)) {
        error("integer literal '" + shown(Cur.Text) + "' out of range");
        return;
      }
      get();
      emit(ConstInst::makeInt(Dst, V));
      return;
    }
    case pack("fconst"): {
      if (!at(Tok::FloatLit) && !at(Tok::IntLit)) {
        error("expected float literal");
        return;
      }
      NameBuf.assign(get());
      emit(ConstInst::makeFloat(Dst, std::strtod(NameBuf.c_str(), nullptr)));
      return;
    }
    case pack("null"):
      emit(ConstInst::makeNull(Dst));
      return;
    case pack("new"): {
      if (!at(Tok::Ident)) {
        error("expected class name");
        return;
      }
      std::string_view Name = get();
      ClassId C = M->findClass(Name);
      if (C == kNoClass) {
        error("new of unknown class '" + std::string(Name) + "'");
        return;
      }
      emit(new AllocInst(Dst, C));
      return;
    }
    case pack("newarray"): {
      if (!at(Tok::Ident)) {
        error("expected element kind");
        return;
      }
      std::string_view KindName = get();
      TypeKind Elem;
      switch (pack(KindName)) {
      case pack("int"):
        Elem = TypeKind::Int;
        break;
      case pack("float"):
        Elem = TypeKind::Float;
        break;
      case pack("ref"):
        Elem = TypeKind::Ref;
        break;
      default:
        if (M->findClass(KindName) == kNoClass) {
          error("unknown array element kind '" + std::string(KindName) +
                "'");
          return;
        }
        Elem = TypeKind::Ref;
        break;
      }
      Reg Len;
      if (!expect(Tok::Comma, "','") || !parseReg(Len))
        return;
      emit(new AllocArrayInst(Dst, Elem, Len));
      return;
    }
    case pack("len"): {
      Reg B;
      if (!parseReg(B))
        return;
      emit(new ArrayLenInst(Dst, B));
      return;
    }
    case pack("call"):
    case pack("vcall"):
    case pack("ncall"):
      parseCallTail(Key, Dst);
      return;
    default:
      break;
    }

    static const auto UnOpKeys =
        packedNames<UnOp, size_t(UnOp::BitsF) + 1>(unOpName);
    static const auto BinOpKeys =
        packedNames<BinOp, size_t(BinOp::CmpGe) + 1>(binOpName);
    if (UnOp U; lookupOp(UnOpKeys, Key, U)) {
      Reg S;
      if (!parseReg(S))
        return;
      emit(new UnInst(U, Dst, S));
      return;
    }
    if (BinOp B; lookupOp(BinOpKeys, Key, B)) {
      Reg L, R;
      if (!parseReg(L) || !expect(Tok::Comma, "','") || !parseReg(R))
        return;
      emit(new BinInst(B, Dst, L, R));
      return;
    }

    error("unknown statement head '" + std::string(Head) + "'");
  }

  Lexer Lex;
  Token Cur, Next;
  bool HasNext = false;
  std::vector<std::string> &Errors;
  /// Parse errors; reported only when the lexer found no bad character.
  std::vector<std::string> Diags;
  std::vector<Item> Items;
  std::string NameBuf;
  std::vector<Reg> ArgBuf;
  std::unique_ptr<Module> M;
  Function *F = nullptr;
  BasicBlock *CurBlock = nullptr;
  /// Instructions parsed for CurBlock and not yet moved into it.
  std::vector<Instruction *> Pending;
  /// Per function: which labels have been defined, and the jumps to labels
  /// not defined when the jump was parsed (with the jump's line).
  std::vector<bool> Defined;
  std::vector<std::pair<uint32_t, unsigned>> Jumps;
};

} // namespace

std::unique_ptr<Module> lud::parseModule(std::string_view Text,
                                         std::vector<std::string> &Errors) {
  return Parser(Text, Errors).run();
}

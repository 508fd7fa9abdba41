#include "datalog/parser.h"

#include <cctype>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "util/file.h"
#include "util/parse.h"

namespace carac::datalog {

namespace {

struct Token {
  enum class Kind {
    kIdent,    // Relation or variable name.
    kNumber,   // Integer literal.
    kString,   // "..." literal.
    kPunct,    // One of ( ) , . :- ! < <= > >= = != + - * / % @
    kEnd,
  };
  Kind kind = Kind::kEnd;
  std::string text;
  int line = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view source) : source_(source) {}

  util::Status Tokenize(std::vector<Token>* out) {
    while (pos_ < source_.size()) {
      const char c = source_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      if (c == '%' || (c == '/' && Peek(1) == '/')) {
        while (pos_ < source_.size() && source_[pos_] != '\n') ++pos_;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        out->push_back(LexIdent());
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '-' && std::isdigit(static_cast<unsigned char>(Peek(1))))) {
        out->push_back(LexNumber());
        continue;
      }
      if (c == '"') {
        Token token;
        CARAC_RETURN_IF_ERROR(LexString(&token));
        out->push_back(std::move(token));
        continue;
      }
      out->push_back(LexPunct());
      if (out->back().text.empty()) {
        return Error(std::string("unexpected character '") + c + "'");
      }
    }
    out->push_back(Token{Token::Kind::kEnd, "", line_});
    return util::Status::Ok();
  }

 private:
  char Peek(size_t ahead) const {
    return pos_ + ahead < source_.size() ? source_[pos_ + ahead] : '\0';
  }

  Token LexIdent() {
    Token token{Token::Kind::kIdent, "", line_};
    while (pos_ < source_.size() &&
           (std::isalnum(static_cast<unsigned char>(source_[pos_])) ||
            source_[pos_] == '_')) {
      token.text += source_[pos_++];
    }
    return token;
  }

  Token LexNumber() {
    Token token{Token::Kind::kNumber, "", line_};
    if (source_[pos_] == '-') token.text += source_[pos_++];
    while (pos_ < source_.size() &&
           std::isdigit(static_cast<unsigned char>(source_[pos_]))) {
      token.text += source_[pos_++];
    }
    return token;
  }

  util::Status LexString(Token* token) {
    token->kind = Token::Kind::kString;
    token->line = line_;
    ++pos_;  // Opening quote.
    while (pos_ < source_.size() && source_[pos_] != '"') {
      if (source_[pos_] == '\n') return Error("unterminated string");
      token->text += source_[pos_++];
    }
    if (pos_ >= source_.size()) return Error("unterminated string");
    ++pos_;  // Closing quote.
    return util::Status::Ok();
  }

  Token LexPunct() {
    Token token{Token::Kind::kPunct, "", line_};
    const char c = source_[pos_];
    const char next = Peek(1);
    auto two = [&](const char* text) {
      token.text = text;
      pos_ += 2;
    };
    if (c == ':' && next == '-') {
      two(":-");
    } else if (c == '<' && next == '=') {
      two("<=");
    } else if (c == '>' && next == '=') {
      two(">=");
    } else if (c == '!' && next == '=') {
      two("!=");
    } else if (std::string("(),.!<>=+-*/%@").find(c) != std::string::npos) {
      token.text = std::string(1, c);
      ++pos_;
    }
    return token;
  }

  util::Status Error(const std::string& message) const {
    return util::Status::InvalidArgument(
        "line " + std::to_string(line_) + ": " + message);
  }

  std::string_view source_;
  size_t pos_ = 0;
  int line_ = 1;
};

class Parser {
 public:
  Parser(std::vector<Token> tokens, Program* program)
      : tokens_(std::move(tokens)), program_(program) {}

  util::Status Parse() {
    while (Current().kind != Token::Kind::kEnd) {
      CARAC_RETURN_IF_ERROR(ParseClause());
    }
    return util::Status::Ok();
  }

 private:
  const Token& Current() const { return tokens_[pos_]; }
  const Token& Ahead(size_t n) const {
    return tokens_[std::min(pos_ + n, tokens_.size() - 1)];
  }
  void Advance() { ++pos_; }

  util::Status Error(const std::string& message) const {
    return util::Status::InvalidArgument(
        "line " + std::to_string(Current().line) + ": " + message);
  }

  bool ConsumePunct(const std::string& text) {
    if (Current().kind == Token::Kind::kPunct && Current().text == text) {
      Advance();
      return true;
    }
    return false;
  }

  static bool IsRelationName(const std::string& name) {
    return !name.empty() && std::isupper(static_cast<unsigned char>(name[0]));
  }

  util::Status RelationOf(const std::string& name, size_t arity,
                          PredicateId* out) {
    auto it = relations_.find(name);
    if (it == relations_.end()) {
      *out = program_->AddRelation(name, arity);
      relations_.emplace(name, *out);
      return util::Status::Ok();
    }
    *out = it->second;
    if (program_->PredicateArity(*out) != arity) {
      return Error(name + " used with arity " + std::to_string(arity) +
                   ", declared with " +
                   std::to_string(program_->PredicateArity(*out)));
    }
    return util::Status::Ok();
  }

  /// Rule-scoped variable lookup.
  Term VarTerm(const std::string& name) {
    auto [it, inserted] = rule_vars_.emplace(name, 0);
    if (inserted) it->second = program_->NewVar(name);
    return Term::MakeVar(it->second);
  }

  util::Status ParseTerm(Term* out) {
    const Token& token = Current();
    switch (token.kind) {
      case Token::Kind::kNumber: {
        // The lexer emits well-formed sign+digit tokens, so a
        // strict-parse failure here can only mean overflow.
        int64_t value = 0;
        if (!util::ParseInt64(token.text, &value)) {
          return Error("integer literal out of 64-bit range: " + token.text);
        }
        *out = Term::MakeConst(value);
        Advance();
        return util::Status::Ok();
      }
      case Token::Kind::kString:
        *out = Term::MakeConst(program_->Intern(token.text));
        Advance();
        return util::Status::Ok();
      case Token::Kind::kIdent:
        if (IsRelationName(token.text)) {
          return Error("relation name '" + token.text +
                       "' used as a term (variables are lowercase)");
        }
        *out = VarTerm(token.text);
        Advance();
        return util::Status::Ok();
      default:
        return Error("expected a term, got '" + token.text + "'");
    }
  }

  util::Status ParseRelationalAtom(Atom* atom) {
    atom->negated = ConsumePunct("!");
    if (Current().kind != Token::Kind::kIdent ||
        !IsRelationName(Current().text)) {
      std::string got = Current().kind == Token::Kind::kEnd
                            ? "end of input"
                            : "'" + Current().text + "'";
      // A lowercase identifier is almost always a miscased relation —
      // teach the convention; for stray punctuation the hint would only
      // mislead.
      if (Current().kind == Token::Kind::kIdent) {
        got += " (relations start uppercase, variables start lowercase)";
      }
      return Error("expected a relation name, got " + got);
    }
    const std::string name = Current().text;
    Advance();
    if (!ConsumePunct("(")) return Error("expected '(' after " + name);
    do {
      Term term;
      CARAC_RETURN_IF_ERROR(ParseTerm(&term));
      atom->terms.push_back(term);
    } while (ConsumePunct(","));
    if (!ConsumePunct(")")) return Error("expected ')'");
    return RelationOf(name, atom->terms.size(), &atom->predicate);
  }

  /// Comparison or arithmetic constraint:
  ///   term OP term              (OP in < <= > >= = !=)
  ///   term = term AOP term      (AOP in + - * / %)
  util::Status ParseConstraint(Atom* atom) {
    Term lhs;
    CARAC_RETURN_IF_ERROR(ParseTerm(&lhs));
    const std::string op = Current().text;
    static const std::map<std::string, BuiltinOp> kCompare = {
        {"<", BuiltinOp::kLt}, {"<=", BuiltinOp::kLe},
        {">", BuiltinOp::kGt}, {">=", BuiltinOp::kGe},
        {"=", BuiltinOp::kEq}, {"!=", BuiltinOp::kNe}};
    auto cmp = kCompare.find(op);
    if (Current().kind != Token::Kind::kPunct || cmp == kCompare.end()) {
      return Error("expected a comparison operator, got '" + op + "'");
    }
    Advance();
    Term rhs;
    CARAC_RETURN_IF_ERROR(ParseTerm(&rhs));

    static const std::map<std::string, BuiltinOp> kArith = {
        {"+", BuiltinOp::kAdd}, {"-", BuiltinOp::kSub},
        {"*", BuiltinOp::kMul}, {"/", BuiltinOp::kDiv},
        {"%", BuiltinOp::kMod}};
    auto arith = kArith.find(Current().text);
    if (Current().kind == Token::Kind::kPunct && arith != kArith.end()) {
      // lhs = rhs AOP third.
      if (cmp->second != BuiltinOp::kEq) {
        return Error("arithmetic requires '=' (e.g. z = x + y)");
      }
      Advance();
      Term third;
      CARAC_RETURN_IF_ERROR(ParseTerm(&third));
      atom->builtin = arith->second;
      atom->terms = {rhs, third, lhs};  // z = x OP y stores (x, y, z).
      return util::Status::Ok();
    }
    atom->builtin = cmp->second;
    atom->terms = {lhs, rhs};
    return util::Status::Ok();
  }

  util::Status ParseBodyAtom(Atom* atom) {
    const bool relational =
        (Current().kind == Token::Kind::kPunct && Current().text == "!") ||
        (Current().kind == Token::Kind::kIdent &&
         IsRelationName(Current().text));
    return relational ? ParseRelationalAtom(atom) : ParseConstraint(atom);
  }

  /// `@index(Rel, col, kind).` — hints the index organization for one
  /// column. `kind` is any name in storage::kIndexKindTable (hash,
  /// btree, learned); the relation must already be
  /// known so the column can be validated against its arity.
  util::Status ParsePragma() {
    if (Current().kind != Token::Kind::kIdent || Current().text != "index") {
      return Error("unknown pragma '@" + Current().text +
                   "' (supported: @index)");
    }
    Advance();
    if (!ConsumePunct("(")) return Error("expected '(' after @index");
    if (Current().kind != Token::Kind::kIdent ||
        !IsRelationName(Current().text)) {
      return Error("expected a relation name in @index");
    }
    const std::string name = Current().text;
    Advance();
    auto it = relations_.find(name);
    if (it == relations_.end()) {
      return Error("@index names unknown relation " + name +
                   " (mention it in a fact or rule first)");
    }
    if (!ConsumePunct(",")) return Error("expected ',' after " + name);
    if (Current().kind != Token::Kind::kNumber) {
      return Error("expected a column number in @index");
    }
    int64_t column = -1;
    util::ParseInt64(Current().text, &column);
    const size_t arity = program_->PredicateArity(it->second);
    if (column < 0 || static_cast<size_t>(column) >= arity) {
      return Error("@index column " + Current().text + " out of range for " +
                   name + "/" + std::to_string(arity));
    }
    Advance();
    if (!ConsumePunct(",")) return Error("expected ',' after the column");
    storage::IndexKind kind;
    if (Current().kind != Token::Kind::kIdent ||
        !storage::ParseIndexKind(Current().text, &kind)) {
      return Error("unknown index kind '" + Current().text +
                   "' in @index (one of: " + storage::IndexKindNameList() +
                   ")");
    }
    Advance();
    if (!ConsumePunct(")")) return Error("expected ')'");
    if (!ConsumePunct(".")) return Error("expected '.' after @index(...)");
    program_->HintIndexKind(it->second, static_cast<size_t>(column), kind);
    return util::Status::Ok();
  }

  util::Status ParseClause() {
    if (ConsumePunct("@")) return ParsePragma();
    rule_vars_.clear();
    Atom head;
    CARAC_RETURN_IF_ERROR(ParseRelationalAtom(&head));
    if (head.negated) return Error("clause heads cannot be negated");

    if (ConsumePunct(".")) {
      // A fact: all terms must be constants.
      storage::Tuple tuple;
      for (const Term& t : head.terms) {
        if (!t.is_const()) return Error("facts must be ground");
        tuple.push_back(t.constant);
      }
      program_->AddFact(head.predicate, std::move(tuple));
      return util::Status::Ok();
    }

    if (!ConsumePunct(":-")) return Error("expected '.' or ':-'");
    Rule rule;
    rule.head = std::move(head);
    do {
      Atom atom;
      CARAC_RETURN_IF_ERROR(ParseBodyAtom(&atom));
      rule.body.push_back(std::move(atom));
    } while (ConsumePunct(","));
    if (!ConsumePunct(".")) return Error("expected '.' at end of rule");

    util::Status status = program_->AddRule(std::move(rule));
    if (!status.ok()) {
      return Error(status.message());
    }
    return util::Status::Ok();
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  Program* program_;
  std::map<std::string, PredicateId> relations_;
  std::map<std::string, VarId> rule_vars_;
};

}  // namespace

util::Status ParseDatalog(std::string_view source, Program* program) {
  std::vector<Token> tokens;
  Lexer lexer(source);
  CARAC_RETURN_IF_ERROR(lexer.Tokenize(&tokens));
  Parser parser(std::move(tokens), program);
  return parser.Parse();
}

util::Status ParseDatalogFile(const std::string& path, Program* program) {
  CARAC_RETURN_IF_ERROR(util::CheckNotDirectory(path));
  std::ifstream in(path);
  if (!in) return util::Status::NotFound("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return ParseDatalog(buffer.str(), program);
}

}  // namespace carac::datalog

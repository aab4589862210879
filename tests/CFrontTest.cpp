//===--- CFrontTest.cpp - Tests for the mini-C front end ------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "cfront/CParser.h"
#include "cfront/CSema.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

using namespace mix::c;
using mix::DiagnosticEngine;

namespace {

class CFrontTest : public ::testing::Test {
protected:
  const CProgram *parse(std::string_view Source) {
    Diags.clear();
    return parseC(Source, Ctx, Diags);
  }

  CAstContext Ctx;
  DiagnosticEngine Diags;
};

} // namespace

TEST_F(CFrontTest, EmptyProgram) {
  const CProgram *P = parse("");
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(P->funcs().empty());
}

TEST_F(CFrontTest, GlobalVariables) {
  const CProgram *P = parse("int x; int *p; int y = 42; char *s;");
  ASSERT_NE(P, nullptr) << Diags.str();
  ASSERT_EQ(P->globals().size(), 4u);
  EXPECT_EQ(P->globals()[0]->type()->str(), "int");
  EXPECT_TRUE(P->globals()[1]->type()->isPointer());
  ASSERT_NE(P->globals()[2]->init(), nullptr);
  EXPECT_EQ(cast<CIntLit>(P->globals()[2]->init())->value(), 42);
}

TEST_F(CFrontTest, QualifierAnnotations) {
  const CProgram *P = parse("int * nonnull p; int * null q; int *r;");
  ASSERT_NE(P, nullptr) << Diags.str();
  EXPECT_EQ(P->globals()[0]->type()->qualifier(), QualAnnot::Nonnull);
  EXPECT_EQ(P->globals()[1]->type()->qualifier(), QualAnnot::Null);
  EXPECT_EQ(P->globals()[2]->type()->qualifier(), QualAnnot::None);
}

TEST_F(CFrontTest, StructDefinitionAndUse) {
  const CProgram *P = parse("struct foo { int bar; struct foo *next; };\n"
                            "struct foo *head;");
  ASSERT_NE(P, nullptr) << Diags.str();
  ASSERT_EQ(P->structs().size(), 1u);
  const CStructDecl *S = P->structs()[0];
  EXPECT_EQ(S->name(), "foo");
  ASSERT_EQ(S->fields().size(), 2u);
  EXPECT_TRUE(S->fields()[1].Ty->isPointer());
  // The recursive field points back to the same declaration.
  EXPECT_EQ(S->fields()[1].Ty->pointee()->structDecl(), S);
}

TEST_F(CFrontTest, FunctionDefinition) {
  const CProgram *P = parse("int add(int a, int b) { return a + b; }");
  ASSERT_NE(P, nullptr) << Diags.str();
  ASSERT_EQ(P->funcs().size(), 1u);
  const CFuncDecl *F = P->funcs()[0];
  EXPECT_EQ(F->name(), "add");
  EXPECT_TRUE(F->isDefined());
  ASSERT_EQ(F->params().size(), 2u);
  EXPECT_EQ(F->params()[0].Name, "a");
  EXPECT_EQ(F->mixAnnot(), MixAnnot::None);
}

TEST_F(CFrontTest, MixAnnotations) {
  const CProgram *P =
      parse("void f(void) MIX(typed) { }\n"
            "void g(void) MIX(symbolic) { }\n"
            "void h(void *nonnull p) MIX(typed);");
  ASSERT_NE(P, nullptr) << Diags.str();
  EXPECT_EQ(P->funcs()[0]->mixAnnot(), MixAnnot::Typed);
  EXPECT_EQ(P->funcs()[1]->mixAnnot(), MixAnnot::Symbolic);
  EXPECT_EQ(P->funcs()[2]->mixAnnot(), MixAnnot::Typed);
  EXPECT_FALSE(P->funcs()[2]->isDefined());
  EXPECT_EQ(P->funcs()[2]->params()[0].Ty->qualifier(), QualAnnot::Nonnull);
}

// --- the name index ----------------------------------------------------------

TEST_F(CFrontTest, FindFuncPrefersTheDefinition) {
  // A prototype before the body, and one after it.
  const CProgram *P = parse("int f(int x);\n"
                            "int f(int x) { return x; }\n"
                            "int g(int y) { return y; }\n"
                            "int g(int y);\n");
  ASSERT_NE(P, nullptr) << Diags.str();
  ASSERT_EQ(P->funcs().size(), 4u);
  EXPECT_EQ(P->findFunc("f"), P->funcs()[1]);
  EXPECT_EQ(P->findFunc("g"), P->funcs()[2]);
  EXPECT_TRUE(P->findFunc("f")->isDefined());
  EXPECT_TRUE(P->findFunc("g")->isDefined());
}

TEST_F(CFrontTest, FindFuncWithoutADefinitionReturnsTheFirstPrototype) {
  const CProgram *P = parse("int h(int a);\nint h(int b);\n");
  ASSERT_NE(P, nullptr) << Diags.str();
  ASSERT_EQ(P->funcs().size(), 2u);
  EXPECT_EQ(P->findFunc("h"), P->funcs()[0]);
  EXPECT_EQ(P->findFunc("h")->params()[0].Name, "a");
}

TEST_F(CFrontTest, GlobalsAndFunctionsDoNotHideEachOther) {
  const CProgram *P = parse("int n;\n"
                            "int n(void) { return 0; }\n"
                            "int m(void) { return 1; }\n"
                            "int *m;\n");
  ASSERT_NE(P, nullptr) << Diags.str();
  EXPECT_EQ(P->findGlobal("n"), P->globals()[0]);
  EXPECT_EQ(P->findFunc("n"), P->funcs()[0]);
  EXPECT_EQ(P->findGlobal("m"), P->globals()[1]);
  EXPECT_EQ(P->findFunc("m"), P->funcs()[1]);
}

TEST_F(CFrontTest, ForwardReferencedStructIsOneDecl) {
  const CProgram *P = parse("struct node *head;\n"
                            "struct node { int v; struct node *next; };\n");
  ASSERT_NE(P, nullptr) << Diags.str();
  ASSERT_EQ(P->structs().size(), 1u);
  const CStructDecl *S = P->findStruct("node");
  EXPECT_EQ(S, P->structs()[0]);
  EXPECT_EQ(S->fields().size(), 2u);
  EXPECT_EQ(P->globals()[0]->type()->pointee()->structDecl(), S);
  EXPECT_EQ(S->fields()[1].Ty->pointee()->structDecl(), S);
}

TEST_F(CFrontTest, UnknownNamesLookUpAsNull) {
  const CProgram *P = parse("struct s { int a; };\nint g;\nvoid f(void) { }\n");
  ASSERT_NE(P, nullptr) << Diags.str();
  EXPECT_EQ(P->findFunc("nope"), nullptr);
  EXPECT_EQ(P->findGlobal("nope"), nullptr);
  EXPECT_EQ(P->findStruct("nope"), nullptr);
  // Each kind has its own namespace.
  EXPECT_EQ(P->findFunc("g"), nullptr);
  EXPECT_EQ(P->findGlobal("f"), nullptr);
  EXPECT_EQ(P->findStruct("g"), nullptr);
  EXPECT_EQ(P->findFunc("s"), nullptr);
  EXPECT_EQ(parse("")->findFunc("main"), nullptr);
}

TEST_F(CFrontTest, EveryDeclIsFoundUnderItsOwnName) {
  std::string Source;
  for (int I = 0; I != 64; ++I) {
    std::string N = std::to_string(I);
    Source += "struct s" + N + " { int f; };\n";
    Source += "struct s" + N + " *g" + N + ";\n";
    Source += "int f" + N + "(int x) { return x + " + N + "; }\n";
  }
  const CProgram *P = parse(Source);
  ASSERT_NE(P, nullptr) << Diags.str();
  ASSERT_EQ(P->structs().size(), 64u);
  ASSERT_EQ(P->globals().size(), 64u);
  ASSERT_EQ(P->funcs().size(), 64u);
  for (const CStructDecl *S : P->structs())
    EXPECT_EQ(P->findStruct(S->name()), S);
  for (const CGlobalDecl *G : P->globals())
    EXPECT_EQ(P->findGlobal(G->name()), G);
  for (const CFuncDecl *F : P->funcs())
    EXPECT_EQ(P->findFunc(F->name()), F);
}

TEST_F(CFrontTest, FunctionPointerDeclarator) {
  const CProgram *P = parse("void (*s_exit_func)(void);");
  ASSERT_NE(P, nullptr) << Diags.str();
  ASSERT_EQ(P->globals().size(), 1u);
  const CType *T = P->globals()[0]->type();
  ASSERT_TRUE(T->isPointer());
  EXPECT_TRUE(T->pointee()->isFunc());
}

TEST_F(CFrontTest, StatementsParse) {
  const CProgram *P = parse(
      "int f(int n) {\n"
      "  int acc = 0;\n"
      "  while (n > 0) { acc = acc + n; n = n - 1; }\n"
      "  if (acc > 10) return acc; else return 0;\n"
      "}");
  ASSERT_NE(P, nullptr) << Diags.str();
}

TEST_F(CFrontTest, PaperCase1Parses) {
  // The sockaddr_clear function from Section 4.5, Case 1 (abbreviated).
  const CProgram *P = parse(
      "struct sockaddr { int family; };\n"
      "void sysutil_free(void * nonnull p_ptr) MIX(typed);\n"
      "void sockaddr_clear(struct sockaddr **p_sock) MIX(symbolic) {\n"
      "  if (*p_sock != NULL) {\n"
      "    sysutil_free((void*)*p_sock);\n"
      "    *p_sock = NULL;\n"
      "  }\n"
      "}");
  ASSERT_NE(P, nullptr) << Diags.str();
  const CFuncDecl *F = P->findFunc("sockaddr_clear");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->mixAnnot(), MixAnnot::Symbolic);
}

TEST_F(CFrontTest, CallsAndMemberAccess) {
  const CProgram *P = parse(
      "struct hostent { int h_addrtype; };\n"
      "struct hostent *gethostbyname(char *name);\n"
      "int check(char *n) {\n"
      "  struct hostent *hent = gethostbyname(n);\n"
      "  if (hent->h_addrtype == 2) return 1;\n"
      "  return 0;\n"
      "}");
  ASSERT_NE(P, nullptr) << Diags.str();
}

TEST_F(CFrontTest, MallocAndCast) {
  const CProgram *P = parse(
      "struct foo { int bar; };\n"
      "struct foo *make(void) {\n"
      "  struct foo *x = (struct foo *) malloc(sizeof(struct foo));\n"
      "  x->bar = 1;\n"
      "  return x;\n"
      "}");
  ASSERT_NE(P, nullptr) << Diags.str();
}

TEST_F(CFrontTest, ParseErrors) {
  EXPECT_EQ(parse("int"), nullptr);
  EXPECT_EQ(parse("int f( {"), nullptr);
  EXPECT_EQ(parse("int x = ;"), nullptr);
  EXPECT_EQ(parse("struct S { int; };"), nullptr);
  EXPECT_EQ(parse("void f(void) MIX(wrong) { }"), nullptr);
}

TEST_F(CFrontTest, IntegerLiteralOutOfRangeIsAnError) {
  // LLONG_MAX itself is representable; one more, or many more digits,
  // must be a diagnostic rather than a wrapped value.
  const CProgram *P = parse("int x = 9223372036854775807;");
  ASSERT_NE(P, nullptr) << Diags.str();
  EXPECT_EQ(parse("int x = 9223372036854775808;"), nullptr);
  EXPECT_EQ(parse("int f(void) { return 99999999999999999999; }"), nullptr);
  EXPECT_NE(Diags.str().find("integer literal out of range"),
            std::string::npos)
      << Diags.str();
}

// --- lexer ------------------------------------------------------------------

namespace {

/// The kinds and spellings of \p Toks, one "kind text" entry each.
std::vector<std::string> describe(const std::vector<CTok> &Toks) {
  std::vector<std::string> Out;
  for (const CTok &T : Toks)
    Out.push_back(std::string(cTokKindName(T.Kind)) + " " +
                  std::string(T.Text));
  return Out;
}

} // namespace

TEST_F(CFrontTest, StringLiteralEscapesReachTheParser) {
  // The token views the literal as written; the parser's value drops each
  // escaping backslash, and the declaration's span keeps it.
  const std::string Source = R"(char *s(void) { return "a\"b\\c"; })";
  std::vector<CTok> Toks = lexC(Source, Diags);
  auto Str = std::find_if(Toks.begin(), Toks.end(), [](const CTok &T) {
    return T.is(CTokKind::StrLit);
  });
  ASSERT_NE(Str, Toks.end());
  EXPECT_EQ(Str->Text, R"(a\"b\\c)");
  EXPECT_EQ(Str->Loc.str(), "1:24");

  const CProgram *P = parse(Source);
  ASSERT_NE(P, nullptr) << Diags.str();
  const auto *Ret = cast<CReturnStmt>(
      cast<CBlockStmt>(P->funcs()[0]->body())->stmts()[0]);
  EXPECT_EQ(cast<CStrLit>(Ret->value())->value(), "a\"b\\c");
  EXPECT_EQ(P->funcs()[0]->span().Text, Source);
}

TEST_F(CFrontTest, LongIdentifiersAreViewedWhole) {
  // Longer than a short-string buffer holds, so the nodes that copy the
  // name own heap memory; the token only views it.
  const std::string Long = "a_global_named_past_fifteen_bytes";
  const std::string Source =
      "int *" + Long + ";\nint *f(void) { return " + Long + "; }";
  std::vector<CTok> Toks = lexC(Source, Diags);
  ASSERT_GE(Toks.size(), 3u);
  EXPECT_EQ(Toks[2].Text, Long);
  EXPECT_EQ(Toks[2].Text.data(), Source.data() + 5);

  const CProgram *P = parse(Source);
  ASSERT_NE(P, nullptr) << Diags.str();
  EXPECT_EQ(P->globals()[0]->name(), Long);
  const auto *Ret = cast<CReturnStmt>(
      cast<CBlockStmt>(P->funcs()[0]->body())->stmts()[0]);
  const auto *Id = cast<CIdent>(Ret->value());
  EXPECT_EQ(Id->name(), Long);
  EXPECT_EQ(Id->nameKind(), CNameKind::Global);
  EXPECT_EQ(Id->global(), P->globals()[0]);
}

TEST_F(CFrontTest, KeywordPrefixesLexAsIdentifiers) {
  std::vector<CTok> Toks =
      lexC("ifx int_ NULLp nonnull_q MIXy if int NULL nonnull MIX", Diags);
  EXPECT_EQ(describe(Toks),
            (std::vector<std::string>{
                "identifier ifx", "identifier int_", "identifier NULLp",
                "identifier nonnull_q", "identifier MIXy", "'if' if",
                "'int' int", "'NULL' NULL", "'nonnull' nonnull", "'MIX' MIX",
                "end of input "}));
  EXPECT_FALSE(Diags.hasErrors());
}

TEST_F(CFrontTest, PositionsCountFromTheLineAfterComments) {
  // Columns count bytes from the start of the line; a comment's newlines
  // count like any other.
  std::vector<CTok> Toks = lexC("int a; // note\n"
                                "  int b;\n"
                                "/* one\n"
                                " two */ int c; /* x */ int d;\r\n"
                                "\tint e; // end",
                                Diags);
  std::vector<std::string> Where;
  for (const CTok &T : Toks)
    Where.push_back(T.Loc.str());
  EXPECT_EQ(Where, (std::vector<std::string>{
                       "1:1", "1:5", "1:6",            // int a ;
                       "2:3", "2:7", "2:8",            // int b ;
                       "4:9", "4:13", "4:14",          // int c ;
                       "4:24", "4:28", "4:29",         // int d ;
                       "5:2", "5:6", "5:7", "5:15"})); // int e ; <eof>
  EXPECT_FALSE(Diags.hasErrors());
}

TEST_F(CFrontTest, LexDiagnosticsKeepTheirTextPositionAndOrder) {
  // The whole buffer is lexed before parsing starts, so a lexical error
  // comes first, then the parser's complaint about the Error token.
  struct Case {
    const char *Source;
    const char *Expected;
  };
  const Case Cases[] = {
      {"int x; /* never\n closed", "1:8: error: unterminated comment\n"},
      {"int x;\nchar *s(void) { return \"abc\n; }",
       "2:24: error: unterminated string literal\n"
       "2:24: error: expected expression, found invalid token\n"},
      {"int x;\n  int y @ 3;",
       "2:9: error: unexpected character '@'\n"
       "2:9: error: expected ';', found invalid token\n"},
      {"int f(void) {\n  return 99999999999999999999; }",
       "2:10: error: integer literal out of range\n"
       "2:10: error: expected expression, found invalid token\n"},
  };
  for (const Case &C : Cases) {
    EXPECT_EQ(parse(C.Source), nullptr) << C.Source;
    EXPECT_EQ(Diags.str(), C.Expected) << C.Source;
  }
}

// --- sema -------------------------------------------------------------------

TEST_F(CFrontTest, SemaTypesExpressions) {
  const CProgram *P = parse(
      "struct foo { int bar; struct foo *next; };\n"
      "struct foo *g;\n"
      "int f(struct foo *x, int n) { x->bar; g->next; *x; &n; nope; "
      "return 0; }");
  ASSERT_NE(P, nullptr) << Diags.str();
  CSema Sema(*P, Ctx, Diags);
  const auto &Body = cast<CBlockStmt>(P->findFunc("f")->body())->stmts();

  auto TypeOfStmt = [&](size_t I) -> std::string {
    const CType *T = Sema.typeOf(cast<CExprStmt>(Body[I])->expr());
    return T ? T->str() : "<error>";
  };
  EXPECT_EQ(TypeOfStmt(0), "int");          // x->bar
  EXPECT_EQ(TypeOfStmt(1), "struct foo *"); // g->next
  EXPECT_EQ(TypeOfStmt(2), "struct foo");   // *x
  EXPECT_EQ(TypeOfStmt(3), "int *");        // &n
  EXPECT_EQ(TypeOfStmt(4), "<error>");      // nope
}

// --- name binding -----------------------------------------------------------

namespace {

/// The identifiers of \p F's body, in source order.
std::vector<const CIdent *> identsOf(const CFuncDecl *F) {
  std::vector<const CIdent *> Out;
  std::function<void(const CExpr *)> Expr = [&](const CExpr *E) {
    switch (E->kind()) {
    case CExprKind::Ident:
      Out.push_back(cast<CIdent>(E));
      return;
    case CExprKind::Unary:
      return Expr(cast<CUnary>(E)->sub());
    case CExprKind::Binary:
      Expr(cast<CBinary>(E)->lhs());
      return Expr(cast<CBinary>(E)->rhs());
    case CExprKind::Assign:
      Expr(cast<CAssign>(E)->target());
      return Expr(cast<CAssign>(E)->value());
    case CExprKind::Call:
      Expr(cast<CCall>(E)->callee());
      for (const CExpr *Arg : cast<CCall>(E)->args())
        Expr(Arg);
      return;
    case CExprKind::Member:
      return Expr(cast<CMember>(E)->base());
    case CExprKind::Cast:
      return Expr(cast<CCast>(E)->sub());
    default:
      return;
    }
  };
  std::function<void(const CStmt *)> Stmt = [&](const CStmt *S) {
    switch (S->kind()) {
    case CStmtKind::Expr:
      return Expr(cast<CExprStmt>(S)->expr());
    case CStmtKind::Decl:
      if (cast<CDeclStmt>(S)->init())
        Expr(cast<CDeclStmt>(S)->init());
      return;
    case CStmtKind::If:
      Expr(cast<CIfStmt>(S)->cond());
      Stmt(cast<CIfStmt>(S)->thenStmt());
      if (cast<CIfStmt>(S)->elseStmt())
        Stmt(cast<CIfStmt>(S)->elseStmt());
      return;
    case CStmtKind::While:
      Expr(cast<CWhileStmt>(S)->cond());
      return Stmt(cast<CWhileStmt>(S)->body());
    case CStmtKind::Return:
      if (cast<CReturnStmt>(S)->value())
        Expr(cast<CReturnStmt>(S)->value());
      return;
    case CStmtKind::Block:
      for (const CStmt *Sub : cast<CBlockStmt>(S)->stmts())
        Stmt(Sub);
      return;
    }
  };
  Stmt(F->body());
  return Out;
}

/// "local <slot> <type>", "global <name>", "function <name>" or
/// "unresolved <name>".
std::string binding(const CIdent *Id) {
  switch (Id->nameKind()) {
  case CNameKind::Local:
    return "local " + std::to_string(Id->localSlot()) + " " +
           Id->localType()->str();
  case CNameKind::Global:
    return "global " + Id->global()->name();
  case CNameKind::Function:
    return "function " + Id->func()->name();
  case CNameKind::Unresolved:
    return "unresolved " + Id->name();
  }
  return "?";
}

std::vector<std::string> bindingsOf(const CFuncDecl *F) {
  std::vector<std::string> Out;
  for (const CIdent *Id : identsOf(F))
    Out.push_back(Id->name() + ": " + binding(Id));
  return Out;
}

using Strings = std::vector<std::string>;

} // namespace

TEST_F(CFrontTest, BinderLocalShadowsGlobal) {
  const CProgram *P = parse("int *g;\n"
                            "void f(int *p) { int *g = p; g; }\n"
                            "void h(void) { g; }\n");
  ASSERT_NE(P, nullptr) << Diags.str();
  EXPECT_EQ(bindingsOf(P->findFunc("f")),
            (Strings{"p: local 0 int *", "g: local 1 int *"}));
  EXPECT_EQ(bindingsOf(P->findFunc("h")), (Strings{"g: global g"}));
}

TEST_F(CFrontTest, BinderUseBeforeTheLocalDeclarationBindsTheGlobal) {
  const CProgram *P = parse("int *g;\n"
                            "int *g;\n"
                            "void f(void) { g; char *g; g; }\n");
  ASSERT_NE(P, nullptr) << Diags.str();
  std::vector<const CIdent *> Ids = identsOf(P->findFunc("f"));
  ASSERT_EQ(Ids.size(), 2u);
  ASSERT_EQ(Ids[0]->nameKind(), CNameKind::Global);
  EXPECT_EQ(Ids[0]->global(), P->globals()[0]); // the first declaration
  EXPECT_EQ(binding(Ids[1]), "local 0 char *");
}

TEST_F(CFrontTest, BinderBranchDeclarationsEndWithTheBranch) {
  // `if` and `while` bodies see a copy of the scope; a plain block shares
  // its parent's.
  const CProgram *P = parse("int *x; int *y; int *z;\n"
                            "void f(int c) {\n"
                            "  if (c) { int *x; x; } else { y; } x;\n"
                            "  while (c) { int *y; y; } y;\n"
                            "  { int *z; z; } z;\n"
                            "}\n");
  ASSERT_NE(P, nullptr) << Diags.str();
  EXPECT_EQ(bindingsOf(P->findFunc("f")),
            (Strings{"c: local 0 int", "x: local 1 int *", "y: global y",
                     "x: global x", "c: local 0 int", "y: local 2 int *",
                     "y: global y", "z: local 3 int *", "z: local 3 int *"}));
}

TEST_F(CFrontTest, BinderRedeclarationSharesOneSlot) {
  const CProgram *P =
      parse("void f(int *a) { int *b; a; char *a; int *b; a; b; }\n");
  ASSERT_NE(P, nullptr) << Diags.str();
  const CFuncDecl *F = P->findFunc("f");
  ASSERT_EQ(F->numSlots(), 2u);
  EXPECT_EQ(F->slotName(0), "a");
  EXPECT_EQ(F->slotName(1), "b");
  EXPECT_EQ(F->params()[0].Slot, 0u);
  const auto &Body = cast<CBlockStmt>(F->body())->stmts();
  EXPECT_EQ(cast<CDeclStmt>(Body[0])->slot(), 1u);
  EXPECT_EQ(cast<CDeclStmt>(Body[2])->slot(), 0u);
  EXPECT_EQ(cast<CDeclStmt>(Body[3])->slot(), 1u);
  // Each use sees the type of the declaration visible there.
  EXPECT_EQ(bindingsOf(F), (Strings{"a: local 0 int *", "a: local 0 char *",
                                    "b: local 1 int *"}));
}

TEST_F(CFrontTest, BinderInitializerSeesItsOwnDeclaration) {
  const CProgram *P = parse("int *p;\nvoid f(void) { int *p = p; }\n");
  ASSERT_NE(P, nullptr) << Diags.str();
  EXPECT_EQ(bindingsOf(P->findFunc("f")), (Strings{"p: local 0 int *"}));
}

TEST_F(CFrontTest, BinderUnknownNameStaysUnresolved) {
  const CProgram *P = parse("int g;\n"
                            "void f(void) { nope; other; nope; g; }\n"
                            "void h(void) { nope; }\n");
  ASSERT_NE(P, nullptr) << Diags.str();
  std::vector<const CIdent *> Ids = identsOf(P->findFunc("f"));
  ASSERT_EQ(Ids.size(), 4u);
  EXPECT_EQ(binding(Ids[0]), "unresolved nope");
  EXPECT_FALSE(Ids[0]->namesFunction());
  // One global slot per unresolved name, shared by all its uses.
  EXPECT_EQ(Ids[0]->unresolvedSlot(), Ids[2]->unresolvedSlot());
  EXPECT_EQ(Ids[0]->unresolvedSlot(),
            identsOf(P->findFunc("h"))[0]->unresolvedSlot());
  EXPECT_NE(Ids[0]->unresolvedSlot(), Ids[1]->unresolvedSlot());
  const CProgram::GlobalSlot &Slot = P->globalSlots()[Ids[0]->unresolvedSlot()];
  EXPECT_EQ(*Slot.Name, "nope");
  EXPECT_EQ(Slot.Global, nullptr);
  EXPECT_EQ(binding(Ids[3]), "global g");
}

TEST_F(CFrontTest, BinderFunctionNameUsedAsValueBindsTheFunction) {
  const CProgram *P = parse("void target(void);\n"
                            "void target(void) { }\n"
                            "void (*fp)(void);\n"
                            "void f(void) { fp = target; target(); }\n"
                            "void g(void) { void (*target)(void); target(); }\n");
  ASSERT_NE(P, nullptr) << Diags.str();
  std::vector<const CIdent *> Ids = identsOf(P->findFunc("f"));
  ASSERT_EQ(Ids.size(), 3u);
  EXPECT_EQ(binding(Ids[0]), "global fp");
  ASSERT_EQ(Ids[1]->nameKind(), CNameKind::Function);
  EXPECT_EQ(Ids[1]->func(), P->findFunc("target")); // the definition
  EXPECT_EQ(Ids[2]->func(), P->findFunc("target"));
  EXPECT_FALSE(Ids[0]->namesFunction());
  EXPECT_TRUE(Ids[1]->namesFunction());

  // A local that shadows the function binds the local, but a call still
  // goes to the function of that name.
  std::vector<const CIdent *> Shadowed = identsOf(P->findFunc("g"));
  ASSERT_EQ(Shadowed.size(), 1u);
  EXPECT_EQ(Shadowed[0]->nameKind(), CNameKind::Local);
  EXPECT_TRUE(Shadowed[0]->namesFunction());
  CSema Sema(*P, Ctx, Diags);
  const auto *Call = cast<CCall>(cast<CExprStmt>(
      cast<CBlockStmt>(P->findFunc("g")->body())->stmts()[1])->expr());
  EXPECT_EQ(Sema.directCallee(Call), P->findFunc("target"));
}

TEST_F(CFrontTest, BinderIndicesAreDenseAndInDeclarationOrder) {
  const CProgram *P = parse("int a;\n"
                            "void f(int x);\n"
                            "int b;\n"
                            "int *a;\n"
                            "void g(int y, int z) { int w; }\n"
                            "void f(int x) { int v; u; }\n");
  ASSERT_NE(P, nullptr) << Diags.str();
  ASSERT_EQ(P->funcs().size(), 3u);
  for (unsigned I = 0; I != 3; ++I)
    EXPECT_EQ(P->funcs()[I]->index(), I);
  // Globals first (a repeated declaration shares its slot), then the
  // function names, then unresolved identifiers.
  EXPECT_EQ(P->globals()[0]->slot(), 0u);
  EXPECT_EQ(P->globals()[1]->slot(), 1u);
  EXPECT_EQ(P->globals()[2]->slot(), 0u);
  Strings Names;
  for (const CProgram::GlobalSlot &S : P->globalSlots())
    Names.push_back(*S.Name);
  EXPECT_EQ(Names, (Strings{"a", "b", "f", "g", "u"}));
  EXPECT_EQ(P->globalSlots()[0].Global, P->globals()[0]);
  EXPECT_EQ(P->funcs()[0]->nameSlot(), 2u);
  EXPECT_EQ(P->funcs()[2]->nameSlot(), 2u);
  EXPECT_EQ(P->funcs()[1]->nameSlot(), 3u);
  // Local slots: parameters first, numbered program-wide in declaration
  // order; a prototype has slots for its parameters.
  EXPECT_EQ(P->funcs()[0]->firstSlot(), 0u);
  EXPECT_EQ(P->funcs()[0]->numSlots(), 1u);
  EXPECT_EQ(P->funcs()[1]->firstSlot(), 1u);
  EXPECT_EQ(P->funcs()[1]->numSlots(), 3u);
  EXPECT_EQ(P->funcs()[1]->slotName(2), "w");
  EXPECT_EQ(P->funcs()[2]->firstSlot(), 4u);
  EXPECT_EQ(P->funcs()[2]->numSlots(), 2u);
  EXPECT_EQ(P->numLocalSlots(), 6u);
}

// --- declaration spans ---------------------------------------------------------

TEST_F(CFrontTest, DeclarationSpansAreTheirExactText) {
  // Each top-level declaration views its text in the source, from its
  // first token through its closing ';' or '}', and records where it
  // starts. Comments and blank lines between declarations belong to none.
  const std::string Source = "// a comment\n"
                             "struct node { int v; struct node *next; };\n"
                             "\n"
                             "int *g = NULL; /* trailing */\n"
                             "  void f(struct node *n) MIX(symbolic) {\n"
                             "    n->v = 1;\n"
                             "  }\n"
                             "struct opaque *h;\n"
                             "void ext(int x);";
  const CProgram *P = parse(Source);
  ASSERT_NE(P, nullptr) << Diags.str();
  auto Where = [](const CSourceSpan &S) {
    return S.Begin.str() + " " + std::string(S.Text);
  };
  EXPECT_EQ(Where(P->findStruct("node")->span()),
            "2:1 struct node { int v; struct node *next; };");
  EXPECT_EQ(P->findStruct("node")->span().Text.data(),
            Source.data() + Source.find("struct node {"));
  EXPECT_EQ(Where(P->findGlobal("g")->span()), "4:1 int *g = NULL;");
  EXPECT_EQ(Where(P->findFunc("f")->span()),
            "5:3 void f(struct node *n) MIX(symbolic) {\n"
            "    n->v = 1;\n"
            "  }");
  EXPECT_EQ(Where(P->findGlobal("h")->span()), "8:1 struct opaque *h;");
  EXPECT_EQ(Where(P->findFunc("ext")->span()), "9:1 void ext(int x);");
  // A struct that is only named has no text of its own.
  EXPECT_TRUE(P->findStruct("opaque")->span().Text.empty());
  EXPECT_FALSE(P->findStruct("opaque")->span().Begin.isValid());
}

TEST_F(CFrontTest, SemaDirectCallee) {
  const CProgram *P = parse(
      "void target(void) { }\n"
      "void (*fp)(void);\n"
      "void caller(void) { target(); (*fp)(); }\n");
  ASSERT_NE(P, nullptr) << Diags.str();
  CSema Sema(*P, Ctx, Diags);
  const CFuncDecl *Caller = P->findFunc("caller");
  const auto *Body = cast<CBlockStmt>(Caller->body());
  const auto *Call1 =
      cast<CCall>(cast<CExprStmt>(Body->stmts()[0])->expr());
  const auto *Call2 =
      cast<CCall>(cast<CExprStmt>(Body->stmts()[1])->expr());
  EXPECT_EQ(Sema.directCallee(Call1), P->findFunc("target"));
  EXPECT_EQ(Sema.directCallee(Call2), nullptr); // through a pointer
}

// --- the arena ----------------------------------------------------------------

namespace {

/// Appends its id to a log when destroyed.
struct DestroyProbe {
  DestroyProbe(std::vector<int> *Log, int Id) : Log(Log), Id(Id) {}
  ~DestroyProbe() { Log->push_back(Id); }
  std::vector<int> *Log;
  int Id;
};

} // namespace

TEST_F(CFrontTest, ContextDestroysObjectsNewestFirst) {
  std::vector<int> Log;
  {
    CAstContext Local;
    Local.make<DestroyProbe>(&Log, 1);
    Local.make<CIntLit>(mix::SourceLoc(1, 1), 7); // nothing to destroy
    Local.make<DestroyProbe>(&Log, 2);
    Local.make<DestroyProbe>(&Log, 3);
    EXPECT_EQ(Local.numNodes(), 4u);
    EXPECT_TRUE(Log.empty());
  }
  EXPECT_EQ(Log, (std::vector<int>{3, 2, 1}));
}

TEST_F(CFrontTest, ContextFreesNodesThatOwnHeapMemory) {
  // Names past the short-string buffer, a string literal, struct fields
  // and parameter lists all own heap memory; the context must free it
  // when it dies (LeakSanitizer checks this in the ASan job). Two parses
  // in one process, and two into one context, give the same program and
  // the same arena size.
  const std::string Source =
      "struct a_struct_with_a_long_name {\n"
      "  int a_field_with_a_long_name;\n"
      "  struct a_struct_with_a_long_name *next_node_in_the_list;\n"
      "};\n"
      "void (*a_function_pointer_global)(int, char *);\n"
      "char *a_function_with_a_long_name(int a_parameter_with_a_long_name,\n"
      "                                  int b) {\n"
      "  char *a_local_with_a_long_name = \"a string literal past fifteen\";\n"
      "  struct a_struct_with_a_long_name *node;\n"
      "  node->a_field_with_a_long_name = a_parameter_with_a_long_name + b;\n"
      "  a_function_with_a_long_name(b, a_parameter_with_a_long_name);\n"
      "  return a_local_with_a_long_name;\n"
      "}\n";
  // Every top-level declaration's start and text.
  auto Spans = [](const CProgram &P) {
    std::string Out;
    auto Add = [&](const CSourceSpan &S) {
      Out += S.Begin.str() + " " + std::string(S.Text) + "\n";
    };
    for (const CStructDecl *S : P.structs())
      Add(S->span());
    for (const CGlobalDecl *G : P.globals())
      Add(G->span());
    for (const CFuncDecl *F : P.funcs())
      Add(F->span());
    return Out;
  };
  std::string FirstSpans;
  size_t FirstNodes = 0, FirstBytes = 0;
  for (int Round = 0; Round != 2; ++Round) {
    CAstContext Local;
    DiagnosticEngine LocalDiags;
    const CProgram *P = parseC(Source, Local, LocalDiags);
    ASSERT_NE(P, nullptr) << LocalDiags.str();
    size_t Nodes = Local.numNodes(), Bytes = Local.numBytes();
    EXPECT_GT(Bytes, Source.size());
    const CProgram *Second = parseC(Source, Local, LocalDiags);
    ASSERT_NE(Second, nullptr) << LocalDiags.str();
    // The second parse shares the context's void, int and char types.
    EXPECT_EQ(Local.numNodes(), 2 * Nodes - 3);
    EXPECT_EQ(Spans(*Second), Spans(*P));
    if (Round == 0) {
      FirstSpans = Spans(*P);
      FirstNodes = Nodes;
      FirstBytes = Bytes;
      continue;
    }
    EXPECT_EQ(Spans(*P), FirstSpans);
    EXPECT_EQ(Nodes, FirstNodes);
    EXPECT_EQ(Bytes, FirstBytes);
  }
  EXPECT_NE(FirstSpans.find("a string literal past fifteen"),
            std::string::npos)
      << FirstSpans;
  // The struct, the global and the function, each after its "L:C "
  // start and before its newline: together, the whole source.
  EXPECT_EQ(FirstSpans.size(), Source.size() + 3 * std::string("1:1 ").size());
}

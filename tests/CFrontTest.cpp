//===--- CFrontTest.cpp - Tests for the mini-C front end ------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "cfront/CParser.h"
#include "cfront/CPrinter.h"
#include "cfront/CSema.h"

#include <gtest/gtest.h>

#include <functional>

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

// --- pretty printer -----------------------------------------------------------

TEST_F(CFrontTest, PrinterRoundTripsFixesPoint) {
  // print(parse(print(parse(S)))) == print(parse(S)) for representative
  // programs covering every construct.
  const char *Programs[] = {
      "int x; int *p; int y = 42;",
      "int * nonnull p; int * null q;",
      "struct foo { int bar; struct foo *next; };\n"
      "struct foo *head;",
      "void (*s_exit_func)(void);",
      "int f(int a, int b) { return a + b; }",
      "void g(void) MIX(typed) { }",
      "void h(int *p) MIX(symbolic) { if (p != NULL) { *p = 1; } }",
      "int loop(int n) {\n"
      "  int acc = 0;\n"
      "  while (n > 0) { acc = acc + n; n = n - 1; }\n"
      "  return acc;\n"
      "}",
      "struct foo { int bar; };\n"
      "struct foo *mk(void) {\n"
      "  struct foo *x = (struct foo *) malloc(sizeof(struct foo));\n"
      "  x->bar = sizeof(int) - 1;\n"
      "  return x;\n"
      "}",
      "char *s(void) { return \"hi\"; }",
      "int neg(int a) { return -a + !a; }",
  };
  for (const char *Source : Programs) {
    Diags.clear();
    const CProgram *P1 = parseC(Source, Ctx, Diags);
    ASSERT_NE(P1, nullptr) << Source << "\n" << Diags.str();
    std::string Once = printProgram(*P1);
    const CProgram *P2 = parseC(Once, Ctx, Diags);
    ASSERT_NE(P2, nullptr) << "reparse failed for:\n"
                           << Once << "\n"
                           << Diags.str();
    EXPECT_EQ(printProgram(*P2), Once) << Source;
  }
}

TEST_F(CFrontTest, PrinterRoundTripsTheCorpusConstructs) {
  const CProgram *P = parse(
      "struct sockaddr { int sa_family; };\n"
      "void sysutil_free(void * nonnull p_ptr) MIX(typed);\n"
      "void sockaddr_clear(struct sockaddr ** nonnull p_sock) "
      "MIX(symbolic) {\n"
      "  if (*p_sock != NULL) {\n"
      "    sysutil_free((void *)*p_sock);\n"
      "    *p_sock = NULL;\n"
      "  }\n"
      "}");
  ASSERT_NE(P, nullptr) << Diags.str();
  std::string Printed = printProgram(*P);
  const CProgram *P2 = parseC(Printed, Ctx, Diags);
  ASSERT_NE(P2, nullptr) << Printed << "\n" << Diags.str();
  EXPECT_EQ(printProgram(*P2), Printed);
  // Annotations survive.
  EXPECT_NE(Printed.find("MIX(symbolic)"), std::string::npos);
  EXPECT_NE(Printed.find("nonnull"), std::string::npos);
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

//===--- VsftpdMini.cpp - The vsftpd-derived evaluation corpus -------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "mixy/VsftpdMini.h"

using namespace mix::c;

namespace {

/// Shared prelude: the allocation wrapper every case study calls into.
/// sysutil_free wraps free() and checks at run time that its argument is
/// non-null; the paper's single nonnull annotation captures that.
const char *Prelude = R"(
struct sockaddr { int sa_family; };
struct mystr { char *pbuf; };
void sysutil_free(void * nonnull p_ptr) MIX(typed);
)";

std::string symAnnot(bool Annotated) {
  return Annotated ? " MIX(symbolic)" : "";
}

/// Case 1 (Section 4.5): flow and path insensitivity in sockaddr_clear.
/// The null store on the line *after* the free call taints the argument
/// for the flow-insensitive system; the null check is invisible to it.
std::string case1Body(bool Annotated) {
  return "void sockaddr_clear(struct sockaddr ** nonnull p_sock)" +
         symAnnot(Annotated) + R"( {
  if (*p_sock != NULL) {
    sysutil_free((void*)*p_sock);
    *p_sock = NULL;
  }
}
)";
}

const char *Case1Main = R"(
struct sockaddr *g_addr;
int main(void) {
  sockaddr_clear(&g_addr);
  return 0;
}
)";

/// Case 2 (Section 4.5): path and context insensitivity around
/// str_next_dirent. sysutil_next_dirent may return NULL; the monomorphic
/// parameter of str_alloc_text conflates p_filename with str, so the
/// sysutil_free(str) in the other caller warns.
std::string case2Body(bool Annotated) {
  return std::string(R"(
void str_alloc_text(struct mystr *p_str, char *p_src) MIX(typed);
char *sysutil_next_dirent(int d) MIX(typed) {
  if (d == 0) { return NULL; }
  return "dirent";
}
)") + "void str_next_dirent(struct mystr *p_str, int d)" +
         symAnnot(Annotated) + R"( {
  char *p_filename = sysutil_next_dirent(d);
  if (p_filename != NULL) {
    str_alloc_text(p_str, p_filename);
  }
}
)";
}

const char *Case2Main = R"(
struct mystr g_str_obj;
void list_common(struct mystr *p_str) {
  char *str = "text";
  str_alloc_text(p_str, str);
  sysutil_free((void*)str);
}
int main(void) {
  str_next_dirent(&g_str_obj, 1);
  list_common(&g_str_obj);
  return 0;
}
)";

/// Case 3 (Section 4.5): flow and path insensitivity in dns_resolve and
/// main. Two null sources (*p_sock = NULL in main_BLOCK and in
/// sockaddr_clear) are overwritten by the allocations in dns_resolve,
/// which only symbolic execution can see. gethostbyname gets the paper's
/// "well-behaved symbolic model" returning only the two address families,
/// so the die() branch is infeasible.
std::string case3Body(bool Annotated) {
  std::string Out = R"(
struct hostent { int h_addrtype; };
char *tunable_pasv_address;
void die(char *p_msg) MIX(typed);
struct hostent *gethostbyname(char *p_name) {
  struct hostent *hent = (struct hostent*) malloc(sizeof(struct hostent));
  if (hent->h_addrtype != 2) {
    hent->h_addrtype = 10;
  }
  return hent;
}
void sockaddr_alloc_ipv4(struct sockaddr ** nonnull p_sock) {
  *p_sock = (struct sockaddr*) malloc(sizeof(struct sockaddr));
}
void sockaddr_alloc_ipv6(struct sockaddr ** nonnull p_sock) {
  *p_sock = (struct sockaddr*) malloc(sizeof(struct sockaddr));
}
void dns_resolve(struct sockaddr ** nonnull p_sock, char *p_name) {
  struct hostent *hent = gethostbyname(p_name);
  sockaddr_clear(p_sock);
  if (hent->h_addrtype == 2) {
    sockaddr_alloc_ipv4(p_sock);
  } else { if (hent->h_addrtype == 10) {
    sockaddr_alloc_ipv6(p_sock);
  } else {
    die("gethostbyname(): neither IPv4 nor IPv6");
  } }
}
)";
  Out += "void main_BLOCK(struct sockaddr ** nonnull p_sock)" +
         symAnnot(Annotated) + R"( {
  *p_sock = NULL;
  dns_resolve(p_sock, tunable_pasv_address);
}
)";
  return Out;
}

const char *Case3Main = R"(
int main(void) {
  struct sockaddr *p_addr;
  main_BLOCK(&p_addr);
  sysutil_free((void*)p_addr);
  return 0;
}
)";

/// Case 4 (Section 4.5): helping symbolic execution. The exit hook is a
/// function pointer the executor cannot call; extracting it into a
/// MIX(typed) block analyzes the call conservatively with types.
std::string case4Body(bool Annotated) {
  std::string Out = "void (*s_exit_func)(void);\n";
  Out += std::string("void sysutil_exit_BLOCK(void)") +
         (Annotated ? " MIX(typed)" : "") + R"( {
  if (s_exit_func != NULL) {
    (*s_exit_func)();
  }
}
)";
  Out += R"(
void sysutil_exit(int exit_code) MIX(symbolic) {
  sysutil_exit_BLOCK();
}
)";
  return Out;
}

const char *Case4Main = R"(
int main(void) {
  sysutil_exit(1);
  return 0;
}
)";

} // namespace

std::string mix::c::corpus::vsftpdCase(unsigned CaseNo, bool Annotated) {
  std::string Out = Prelude;
  switch (CaseNo) {
  case 1:
    return Out + case1Body(Annotated) + Case1Main;
  case 2:
    return Out + case2Body(Annotated) + Case2Main;
  case 3:
    return Out + case1Body(Annotated) + case3Body(Annotated) + Case3Main;
  case 4:
    return Out + case4Body(Annotated) + Case4Main;
  default:
    return Out;
  }
}

std::string mix::c::corpus::vsftpdFull(bool Annotated) {
  std::string Out = Prelude;
  Out += case1Body(Annotated);
  Out += case2Body(Annotated);
  Out += case3Body(Annotated);
  Out += case4Body(Annotated);
  // A merged main touching every case.
  Out += R"(
struct sockaddr *g_addr;
struct mystr g_str_obj;
void list_common(struct mystr *p_str) {
  char *str = "text";
  str_alloc_text(p_str, str);
  sysutil_free((void*)str);
}
int main(void) {
  struct sockaddr *p_addr;
  sockaddr_clear(&g_addr);
  str_next_dirent(&g_str_obj, 1);
  list_common(&g_str_obj);
  main_BLOCK(&p_addr);
  sysutil_free((void*)p_addr);
  sysutil_exit(0);
  return 0;
}
)";
  return Out;
}

std::string mix::c::corpus::vsftpdScaled(bool Annotated, unsigned Modules,
                                         unsigned SymbolicBlocks) {
  std::string Out = vsftpdFull(Annotated);
  // Filler modules: chains of pointer-passing helpers that enlarge the
  // qualifier constraint graph the way utility code does in vsftpd.
  for (unsigned M = 0; M != Modules; ++M) {
    std::string Mod = std::to_string(M);
    Out += "int *filler_src_" + Mod + "(int *p) { return p; }\n";
    Out += "int *filler_mid_" + Mod + "(int *p) { return filler_src_" +
           Mod + "(p); }\n";
    bool Symbolic = M < SymbolicBlocks;
    // Symbolic filler blocks carry real execution work: a branch cascade
    // over symbolic scalars (2^5 paths each) and a null-checked free, so
    // each added block costs the executor and solver measurably — the
    // shape behind the paper's "5 to 25 seconds ... with one symbolic
    // block" observation.
    Out += "void filler_use_" + Mod + "(int *p, int a, int b, int c, "
           "int d, int e)" +
           (Symbolic && Annotated ? std::string(" MIX(symbolic)")
                                  : std::string()) +
           " {\n"
           "  int acc;\n  acc = 0;\n"
           "  if (a > 0) { acc = acc + 1; } else { acc = acc - 1; }\n"
           "  if (b > a) { acc = acc + 2; } else { acc = acc - 2; }\n"
           "  if (c > b) { acc = acc + 3; } else { acc = acc - 3; }\n"
           "  if (d > c) { acc = acc + 4; } else { acc = acc - 4; }\n"
           "  if (e > d) { acc = acc + 5; } else { acc = acc - 5; }\n"
           "  int *q = filler_mid_" +
           Mod + "(p);\n"
                 "  if (q != NULL) { if (acc > 0) { "
                 "sysutil_free((void*)q); } }\n"
                 "}\n";
  }
  // Extend main with calls into the filler.
  Out += "int filler_main(void) {\n  int x;\n  x = 0;\n";
  for (unsigned M = 0; M != Modules; ++M)
    Out += "  filler_use_" + std::to_string(M) +
           "(&x, 1, 2, 3, 4, 5);\n";
  Out += "  return main();\n}\n";
  return Out;
}

std::string mix::c::corpus::deepCallChain(unsigned Depth) {
  std::string Out = "void sysutil_free(void * nonnull p_ptr) MIX(typed);\n";
  for (unsigned I = 0; I <= Depth; ++I)
    Out += "int *x" + std::to_string(I) + ";\n";
  for (unsigned I = 1; I <= Depth; ++I) {
    std::string Idx = std::to_string(I);
    Out += "void step" + Idx + "(void) MIX(symbolic) {\n"
           "  x" + Idx + " = x" + std::to_string(I - 1) + ";\n}\n";
  }
  Out += "void sink(void) MIX(symbolic) {\n"
         "  sysutil_free((void*)x" + std::to_string(Depth) + ");\n}\n"
         "void source(void) MIX(symbolic) {\n"
         "  x0 = NULL;\n}\n"
         "int main(void) {\n  sink();\n";
  for (unsigned I = Depth; I >= 1; --I)
    Out += "  step" + std::to_string(I) + "();\n";
  Out += "  source();\n  return 0;\n}\n";
  return Out;
}

std::string mix::c::corpus::countedLoopBlock(unsigned Trips) {
  std::string N = std::to_string(Trips);
  return "void sysutil_free(void * nonnull p_ptr) MIX(typed);\n"
         "int *g;\n"
         "void blk(int n) MIX(symbolic) {\n"
         "  int i;\n  i = 0;\n"
         "  while (i < " + N + ") { i = i + 1; }\n"
         "  if (i == " + N + ") { g = NULL; }\n"
         "}\n"
         "int main(void) {\n"
         "  blk(1);\n"
         "  sysutil_free((void*)g);\n"
         "  return 0;\n"
         "}\n";
}

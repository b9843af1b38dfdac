// LD_PRELOAD shim: the engine creates its spill directory with a fixed
// "/tmp/qcm_spill_XXXXXX" template and no flag overrides it. With
// QCMB_TMPDIR set, any mkdtemp template under /tmp/ is re-rooted there,
// so every temp directory of a benchmark run lives in the benchmark's own
// work directory and is removed with it, even after a killed run.
//
// The replacement path is longer than the caller's buffer, so the result
// is returned in a heap buffer (the callers copy the returned pointer
// immediately); the caller's template is left untouched.

#include <dlfcn.h>

#include <cstdlib>
#include <cstring>
#include <string>

extern "C" char* mkdtemp(char* templ) {
  using MkdtempFn = char* (*)(char*);
  static MkdtempFn real = reinterpret_cast<MkdtempFn>(
      ::dlsym(RTLD_NEXT, "mkdtemp"));
  static const char kTmp[] = "/tmp/";
  const char* root = std::getenv("QCMB_TMPDIR");
  if (root == nullptr || *root == '\0' ||
      std::strncmp(templ, kTmp, sizeof(kTmp) - 1) != 0) {
    return real(templ);
  }
  const std::string moved =
      std::string(root) + "/" + (templ + sizeof(kTmp) - 1);
  char* buf = static_cast<char*>(std::malloc(moved.size() + 1));
  if (buf == nullptr) return nullptr;
  std::memcpy(buf, moved.c_str(), moved.size() + 1);
  return real(buf);
}

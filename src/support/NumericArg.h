//===-- support/NumericArg.h - Strict flag and number parsing --*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one parser for unsigned numeric flags and environment knobs, and
/// the one matcher for value-taking flags, shared by every tool and bench
/// harness. Header-only, so binaries that do not link sharc_support
/// (sharc-serve) can use it too.
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_SUPPORT_NUMERICARG_H
#define SHARC_SUPPORT_NUMERICARG_H

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <system_error>

namespace sharc {

/// Strict unsigned decimal parse: \p Text must be nonempty, all digits (no
/// sign, no whitespace, no trailing garbage) and fit in 64 bits. On
/// failure \returns false and leaves \p Out unchanged.
inline bool parseUnsigned(const char *Text, uint64_t &Out) {
  const char *End = Text + std::strlen(Text);
  uint64_t Value = 0;
  auto [Ptr, Ec] = std::from_chars(Text, End, Value, 10);
  if (Text == End || Ec != std::errc() || Ptr != End)
    return false;
  Out = Value;
  return true;
}

/// parseUnsigned for the value of command-line flag \p Flag. On failure
/// prints "<Tool>: <Flag> expects an unsigned integer, got '<Text>'" to
/// stderr; the caller exits 2.
inline bool parseFlagU64(const char *Tool, const char *Flag, const char *Text,
                         uint64_t &Out) {
  if (parseUnsigned(Text, Out))
    return true;
  std::fprintf(stderr, "%s: %s expects an unsigned integer, got '%s'\n", Tool,
               Flag, Text);
  return false;
}

/// Matches a value-taking flag in either spelling, "--flag VALUE" or
/// "--flag=VALUE". \returns true when Argv[I] is \p Flag; \p Value then
/// points at the flag's argument (empty for "--flag="), or is null when
/// the argument is missing (the caller reports usage). Advances \p I past
/// a separate value argument.
inline bool matchValueFlag(const char *Flag, int Argc, char **Argv, int &I,
                           const char *&Value) {
  const char *Arg = Argv[I];
  size_t Len = std::strlen(Flag);
  if (std::strncmp(Arg, Flag, Len) != 0)
    return false;
  if (Arg[Len] == '=') {
    Value = Arg + Len + 1;
    return true;
  }
  if (Arg[Len] != '\0')
    return false; // a longer flag sharing this prefix
  Value = I + 1 < Argc ? Argv[++I] : nullptr;
  return true;
}

} // namespace sharc

#endif // SHARC_SUPPORT_NUMERICARG_H

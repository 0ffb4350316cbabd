//===-- support/NumericArg.h - Strict unsigned argument parsing -*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one parser for unsigned numeric flags and environment knobs, shared
/// by every tool and bench harness. Header-only, so binaries that do not
/// link sharc_support (sharc-serve) can use it too.
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

} // namespace sharc

#endif // SHARC_SUPPORT_NUMERICARG_H

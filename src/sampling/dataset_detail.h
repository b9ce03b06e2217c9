// The field converter of Dataset::load_csv, exposed so a test can hold it
// against std::from_chars over fields the loader would see only inside
// rows. Not for callers: load_csv already applies it to every field.
#pragma once

#include <string_view>

namespace spire::sampling::detail {

/// Clinger's fast path over the longest prefix of [first, last) shaped
/// `-?D*(.D*)?` with at least one digit D: at most 19 significant digits,
/// at most 22 after the point, and a mantissa of at most 2^53. The digits
/// convert exactly as an integer, and one division by the exactly
/// representable 10^k rounds once, so `value` has std::from_chars's bits.
/// Returns the end of the prefix, or nullptr when there is no such prefix
/// or it is out of the fast path's reach (value unspecified then).
const char* parse_decimal_fast(const char* first, const char* last,
                               double& value);

/// True, with `value` set, iff std::from_chars over `field` consumes all of
/// it; `value` then has the bits from_chars gives. Fields the fast path
/// cannot take (exponents, inf/nan, 17-digit prints, anything malformed)
/// go to std::from_chars.
bool parse_number(std::string_view field, double& value);

}  // namespace spire::sampling::detail

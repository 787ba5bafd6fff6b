// Recursive-descent parser for TBQL (Grammar 1) over the shared query
// lexer. Replaces the ANTLR 4 grammar of the paper's implementation with an
// equivalent dependency-free parser.
#pragma once

#include <string_view>

#include "common/query_lexer.h"
#include "common/status.h"
#include "tbql/ast.h"

namespace raptor::tbql {

/// TBQL's lexical rules: lower-case keywords, "double-quoted" strings with
/// \" and \\ escapes, integers only.
extern const LexSpec kTbqlLex;

/// Parse a complete TBQL query. Timestamps in windows and gap bounds are
/// integer microseconds; gaps accept the units us/ms/sec/min/hour/day.
Result<TbqlQuery> ParseTbql(std::string_view text);

}  // namespace raptor::tbql

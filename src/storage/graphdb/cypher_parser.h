// Recursive-descent parser for the Cypher subset over the shared query
// lexer.
#pragma once

#include <string_view>

#include "common/query_lexer.h"
#include "common/status.h"
#include "storage/graphdb/cypher_ast.h"

namespace raptor::graphdb {

/// Cypher's lexical rules: upper-case keywords, 'single-quoted' strings
/// with \' and \\ escapes, integers and digits.digits floats.
extern const LexSpec kCypherLex;

/// Parse a single MATCH ... RETURN query.
Result<CypherQuery> ParseCypher(std::string_view text);

}  // namespace raptor::graphdb

// Recursive-descent parser for the SQL subset over the shared query lexer.
#pragma once

#include <string_view>

#include "common/query_lexer.h"
#include "common/status.h"
#include "storage/relational/sql_ast.h"

namespace raptor::sql {

/// SQL's lexical rules: upper-case keywords, 'single-quoted' strings with
/// '' escaping, integers and digits.digits floats.
extern const LexSpec kSqlLex;

/// Parse a single SELECT statement.
Result<SelectStmt> ParseSelect(std::string_view sql);

}  // namespace raptor::sql

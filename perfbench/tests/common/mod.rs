//! A minimal JSON reader for the tests (the package has no dependencies
//! beyond the library crates).

// Each test binary uses a different part of the reader.
#![allow(dead_code)]

use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key {key:?}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(m) => m.keys().map(String::as_str).collect(),
            other => panic!("{other:?} is not an object"),
        }
    }

    pub fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("{other:?} is not an array"),
        }
    }

    pub fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    pub fn num(&self) -> f64 {
        match self {
            Json::Num(v) => *v,
            other => panic!("{other:?} is not a number"),
        }
    }
}

pub fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.s.len(), "trailing input after JSON value");
    v
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        *self.s.get(self.i).expect("unexpected end of JSON")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut m = BTreeMap::new();
                if self.peek() != b'}' {
                    loop {
                        let Json::Str(k) = self.value() else {
                            panic!("object keys are strings")
                        };
                        self.eat(b':');
                        assert!(
                            m.insert(k.clone(), self.value()).is_none(),
                            "duplicate key {k}"
                        );
                        if self.peek() == b'}' {
                            break;
                        }
                        self.eat(b',');
                    }
                }
                self.eat(b'}');
                Json::Obj(m)
            }
            b'[' => {
                self.eat(b'[');
                let mut v = Vec::new();
                if self.peek() != b']' {
                    loop {
                        v.push(self.value());
                        if self.peek() == b']' {
                            break;
                        }
                        self.eat(b',');
                    }
                }
                self.eat(b']');
                Json::Arr(v)
            }
            b'"' => {
                self.eat(b'"');
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used here");
                    self.i += 1;
                }
                let s = String::from_utf8(self.s[start..self.i].to_vec()).expect("UTF-8");
                self.i += 1;
                Json::Str(s)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && !b",]} \n\t\r".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                match std::str::from_utf8(&self.s[start..self.i]).expect("UTF-8") {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    "null" => Json::Null,
                    num => Json::Num(num.parse().unwrap_or_else(|_| panic!("bad token {num:?}"))),
                }
            }
        }
    }
}
